#include "sim/event_queue.hh"

#include <bit>
#include <utility>

#include "base/logging.hh"

namespace swex
{

Event::~Event()
{
    if (_queue)
        _queue->deschedule(*this);
}

void
Event::setPrio(EventPrio p)
{
    SWEX_ASSERT(!scheduled(),
                "cannot change the priority of a scheduled event");
    _prio = p;
}

/**
 * Recyclable event backing the std::function shim. Instances are
 * allocated in chunks, live for the queue's lifetime, and cycle
 * through a free list, so steady-state shim traffic performs no
 * event-object allocation.
 */
class EventQueue::PooledLambda final : public Event
{
  public:
    void
    process() override
    {
        _fn();
        _fn = nullptr;   // drop captures deterministically
        _owner->releaseLambda(this);
    }

    using Event::setPrio;

    EventQueue *_owner = nullptr;
    Callback _fn;
    PooledLambda *_nextFree = nullptr;
};

EventQueue::EventQueue() = default;

EventQueue::~EventQueue()
{
    // Detach still-pending events so their destructors do not reach
    // back into a dead queue. The events themselves belong to the
    // components that declared them. Only occupied buckets hold any.
    for (std::size_t w = 0; w < _occupied.size(); ++w) {
        for (std::uint64_t bits = _occupied[w]; bits != 0;
             bits &= bits - 1) {
            Bucket &b = _wheel[w * 64 + static_cast<unsigned>(
                                            std::countr_zero(bits))];
            for (unsigned p = 0; p < numEventPrios; ++p) {
                for (Event *e = b.head[p]; e != nullptr;) {
                    Event *next = e->_next;
                    e->_queue = nullptr;
                    e->_next = nullptr;
                    e = next;
                }
            }
        }
    }
    for (Event *e : _heap) {
        e->_queue = nullptr;
        e->_heapIndex = -1;
    }
}

bool
EventQueue::laterThan(const Event *a, const Event *b)
{
    if (a->_when != b->_when)
        return a->_when > b->_when;
    if (a->_prio != b->_prio)
        return a->_prio > b->_prio;
    return a->_seq > b->_seq;
}

void
EventQueue::schedule(Event &e, Tick when)
{
    SWEX_ASSERT(when >= _curTick,
                "scheduling into the past: %llu < %llu",
                static_cast<unsigned long long>(when),
                static_cast<unsigned long long>(_curTick));
    SWEX_ASSERT(!e.scheduled(), "event is already scheduled");

    e._when = when;
    e._seq = _nextSeq++;
    e._queue = this;
    ++_numPending;

    if (when - _curTick < wheelSize)
        bucketInsert(e);
    else
        heapPush(&e);
}

void
EventQueue::deschedule(Event &e)
{
    SWEX_ASSERT(e._queue == this,
                "descheduling an event owned by another queue");
    if (e._heapIndex >= 0)
        heapRemove(&e);
    else
        bucketRemove(e);
    e._queue = nullptr;
    --_numPending;
}

void
EventQueue::bucketInsert(Event &e)
{
    unsigned idx = static_cast<unsigned>(e._when) & wheelMask;
    Bucket &b = _wheel[idx];
    unsigned p = static_cast<unsigned>(e._prio);
    e._next = nullptr;
    e._heapIndex = -1;
    if (b.tail[p] != nullptr)
        b.tail[p]->_next = &e;
    else
        b.head[p] = &e;
    b.tail[p] = &e;
    _occupied[idx >> 6] |= std::uint64_t{1} << (idx & 63);
}

void
EventQueue::bucketRemove(Event &e)
{
    unsigned idx = static_cast<unsigned>(e._when) & wheelMask;
    Bucket &b = _wheel[idx];
    unsigned p = static_cast<unsigned>(e._prio);
    Event **link = &b.head[p];
    Event *prev = nullptr;
    while (*link != nullptr && *link != &e) {
        prev = *link;
        link = &prev->_next;
    }
    SWEX_ASSERT(*link == &e, "event missing from its wheel bucket");
    *link = e._next;
    if (b.tail[p] == &e)
        b.tail[p] = prev;
    e._next = nullptr;
    if (b.head[0] == nullptr && b.head[1] == nullptr &&
        b.head[2] == nullptr && b.head[3] == nullptr) {
        _occupied[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    }
}

void
EventQueue::heapPush(Event *e)
{
    e->_heapIndex = static_cast<std::int32_t>(_heap.size());
    e->_next = nullptr;
    _heap.push_back(e);
    heapSiftUp(_heap.size() - 1);
}

void
EventQueue::heapSiftUp(std::size_t i)
{
    while (i > 0) {
        std::size_t parent = (i - 1) / 2;
        if (!laterThan(_heap[parent], _heap[i]))
            break;
        std::swap(_heap[parent], _heap[i]);
        _heap[parent]->_heapIndex = static_cast<std::int32_t>(parent);
        _heap[i]->_heapIndex = static_cast<std::int32_t>(i);
        i = parent;
    }
}

void
EventQueue::heapSiftDown(std::size_t i)
{
    const std::size_t n = _heap.size();
    while (true) {
        std::size_t best = i;
        std::size_t l = 2 * i + 1;
        std::size_t r = 2 * i + 2;
        if (l < n && laterThan(_heap[best], _heap[l]))
            best = l;
        if (r < n && laterThan(_heap[best], _heap[r]))
            best = r;
        if (best == i)
            break;
        std::swap(_heap[best], _heap[i]);
        _heap[best]->_heapIndex = static_cast<std::int32_t>(best);
        _heap[i]->_heapIndex = static_cast<std::int32_t>(i);
        i = best;
    }
}

void
EventQueue::heapRemove(Event *e)
{
    std::size_t i = static_cast<std::size_t>(e->_heapIndex);
    SWEX_ASSERT(i < _heap.size() && _heap[i] == e,
                "corrupt spill-heap index");
    Event *last = _heap.back();
    _heap.pop_back();
    e->_heapIndex = -1;
    if (last == e)
        return;
    _heap[i] = last;
    last->_heapIndex = static_cast<std::int32_t>(i);
    heapSiftUp(i);
    heapSiftDown(static_cast<std::size_t>(last->_heapIndex));
}

int
EventQueue::nextOccupiedBucket(unsigned start) const
{
    constexpr unsigned numWords =
        static_cast<unsigned>(wheelSize / 64);
    unsigned w = start >> 6;
    std::uint64_t bits =
        _occupied[w] & (~std::uint64_t{0} << (start & 63));
    // One extra iteration re-reads the start word unmasked to cover
    // the circular wrap below `start`.
    for (unsigned n = 0; n <= numWords; ++n) {
        if (bits != 0) {
            return static_cast<int>((w << 6) +
                   static_cast<unsigned>(std::countr_zero(bits)));
        }
        w = (w + 1) & (numWords - 1);
        bits = _occupied[w];
    }
    return -1;
}

Event *
EventQueue::pickNext() const
{
    if (_numPending == 0)
        return nullptr;

    Event *wheel_cand = nullptr;
    int idx =
        nextOccupiedBucket(static_cast<unsigned>(_curTick) & wheelMask);
    if (idx >= 0) {
        const Bucket &b = _wheel[static_cast<unsigned>(idx)];
        for (unsigned p = 0; p < numEventPrios; ++p) {
            if (b.head[p] != nullptr) {
                wheel_cand = b.head[p];
                break;
            }
        }
    }

    Event *heap_cand = _heap.empty() ? nullptr : _heap.front();
    if (wheel_cand == nullptr)
        return heap_cand;
    if (heap_cand == nullptr)
        return wheel_cand;
    return laterThan(wheel_cand, heap_cand) ? heap_cand : wheel_cand;
}

bool
EventQueue::runOne()
{
    Event *e = pickNext();
    if (e == nullptr)
        return false;
    deschedule(*e);
    _curTick = e->_when;
    ++_numExecuted;
    e->process();
    return true;
}

Tick
EventQueue::run(Tick limit)
{
    while (Event *e = pickNext()) {
        if (e->_when > limit)
            break;
        deschedule(*e);
        _curTick = e->_when;
        ++_numExecuted;
        e->process();
    }
    return _curTick;
}

EventQueue::PooledLambda *
EventQueue::acquireLambda()
{
    if (_lambdaFree == nullptr) {
        constexpr unsigned chunk = 256;
        auto arr = std::make_unique<PooledLambda[]>(chunk);
        for (unsigned i = 0; i < chunk; ++i) {
            arr[i]._owner = this;
            arr[i]._nextFree = _lambdaFree;
            _lambdaFree = &arr[i];
        }
        _lambdaChunks.push_back(std::move(arr));
    }
    PooledLambda *e = _lambdaFree;
    _lambdaFree = e->_nextFree;
    return e;
}

void
EventQueue::releaseLambda(PooledLambda *e)
{
    e->_nextFree = _lambdaFree;
    _lambdaFree = e;
}

void
EventQueue::schedule(Tick when, Callback cb, EventPrio prio)
{
    PooledLambda *e = acquireLambda();
    e->_fn = std::move(cb);
    e->setPrio(prio);
    schedule(*e, when);
}

} // namespace swex
