/**
 * @file
 * Synchronization primitives implemented on the simulated shared
 * memory, so they generate the real coherence traffic the paper's
 * applications generate: test-and-test-and-set spin locks with
 * exponential backoff, combining-tree barriers, and a lock-protected
 * centralized work queue. These mirror Alewife's parallel C library
 * (Lim, ALEWIFE Memo 37).
 */

#ifndef SWEX_RUNTIME_SYNC_HH
#define SWEX_RUNTIME_SYNC_HH

#include <algorithm>
#include <vector>

#include "machine/mem_api.hh"
#include "runtime/shmem.hh"
#include "sim/task.hh"

namespace swex
{

/**
 * Test-and-test-and-set spin lock with exponential backoff. The lock
 * word occupies its own cache block (no false sharing).
 */
class SpinLock
{
  public:
    SpinLock() = default;

    /** Allocate a lock homed at node @p home. */
    static SpinLock
    create(Machine &m, NodeId home = 0)
    {
        SpinLock l;
        l._addr = m.allocOn(home, blockBytes, blockBytes);
        m.debugWrite(l._addr, 0);
        return l;
    }

    Addr addr() const { return _addr; }

    Task<void>
    acquire(Mem &m) const
    {
        Cycles backoff = 16;
        for (;;) {
            Word old = co_await m.swap(_addr, 1);
            if (old == 0)
                co_return;
            // Spin locally on the cached value until it looks free.
            while (co_await m.read(_addr) != 0) {
                co_await m.work(backoff);
                if (backoff < 512)
                    backoff *= 2;
            }
        }
    }

    Task<void>
    release(Mem &m) const
    {
        co_await m.write(_addr, 0);
    }

  private:
    Addr _addr = 0;
};

/**
 * Combining-tree barrier (fanout 4). Every shared block has a worker
 * set of at most 5 nodes (one writer, its tree neighbors as readers),
 * so limited-directory protocols handle barrier traffic in hardware
 * -- the style of optimized barrier Alewife's parallel C library
 * provided (paper Section 7 lists the fast barrier as a protocol-
 * software enhancement).
 *
 * Thread t waits for its children's arrival words, posts its own
 * arrival, spins on its parent's release word, then posts its own
 * release to free its children. Epoch counters avoid reinitialization.
 */
class TreeBarrier
{
  public:
    static constexpr int fanout = 4;

    TreeBarrier() = default;

    static TreeBarrier
    create(Machine &m, int participants)
    {
        TreeBarrier b;
        b._n = participants;
        // One block per participant for each array, homed at the
        // participant that writes it.
        b._arrived = SharedArray(
            m, static_cast<std::size_t>(participants) * wordsPerBlock,
            Layout::Blocked);
        b._release = SharedArray(
            m, static_cast<std::size_t>(participants) * wordsPerBlock,
            Layout::Blocked);
        b._arrived.fill(m, 0);
        b._release.fill(m, 0);
        return b;
    }

    /** Blocks create() takes on each node of a @p num_nodes-node
     *  machine. */
    static std::uint64_t
    nodeBlocks(int participants, int num_nodes)
    {
        return 2 * SharedArray::nodeBlocks(
                       static_cast<std::uint64_t>(participants) *
                           wordsPerBlock,
                       Layout::Blocked, num_nodes);
    }

    Task<void>
    wait(Mem &m)
    {
        int tid = m.id();
        Word epoch = ++_epoch;

        // Gather: wait for each child's arrival.
        for (int k = 1; k <= fanout; ++k) {
            int child = tid * fanout + k;
            if (child >= _n)
                break;
            while (co_await m.read(slot(_arrived, child)) < epoch)
                co_await m.work(20);
        }
        if (tid != 0) {
            co_await m.write(slot(_arrived, tid), epoch);
            int parent = (tid - 1) / fanout;
            while (co_await m.read(slot(_release, parent)) < epoch)
                co_await m.work(20);
        }
        // Release wave: free our children.
        co_await m.write(slot(_release, tid), epoch);
    }

  private:
    static Addr
    slot(const SharedArray &arr, int i)
    {
        return arr.at(static_cast<std::size_t>(i) * wordsPerBlock);
    }

    SharedArray _arrived;
    SharedArray _release;
    int _n = 0;
    Word _epoch = 0;   ///< thread-local (each thread copies a barrier)
};

/**
 * Centralized FIFO work queue protected by a spin lock, with a
 * pending-work counter for termination detection in dynamic
 * (producer-consumer) applications.
 */
class WorkQueue
{
  public:
    WorkQueue() = default;

    /**
     * @param shared_pending if nonzero, this queue participates in a
     *        multi-queue pool and uses the given address as the pool's
     *        common outstanding-work counter (see TSP's stealing
     *        scheduler); otherwise the queue owns a private counter.
     */
    static WorkQueue
    create(Machine &m, std::size_t capacity, NodeId home = 0,
           Addr shared_pending = 0)
    {
        WorkQueue q;
        q._lock = SpinLock::create(m, home);
        q._head = m.allocOn(home, blockBytes, blockBytes);
        q._tail = m.allocOn(home, blockBytes, blockBytes);
        if (shared_pending) {
            q._pending = shared_pending;
        } else {
            q._pending = m.allocOn(home, blockBytes, blockBytes);
            m.debugWrite(q._pending, 0);
        }
        q._slots = SharedArray(m, capacity,
                               capacity > 4096 ? Layout::Interleaved
                                               : Layout::OnNode,
                               home);
        q._cap = capacity;
        m.debugWrite(q._head, 0);
        m.debugWrite(q._tail, 0);
        return q;
    }

    /**
     * Unlocked size estimate (racy but safe): two reads, no lock.
     * Used by stealing schedulers to skip empty victims cheaply.
     */
    Task<bool>
    looksNonEmpty(Mem &m)
    {
        Word head = co_await m.read(_head);
        Word tail = co_await m.read(_tail);
        co_return tail != head;
    }

    /**
     * Add one item. The caller must have already registered the work
     * with addPending() (or rely on push's internal accounting via
     * @p count_pending).
     */
    Task<void>
    push(Mem &m, Word item, bool count_pending = true)
    {
        if (count_pending)
            co_await m.fetchAdd(_pending, 1);
        co_await _lock.acquire(m);
        Word tail = co_await m.read(_tail);
        Word head = co_await m.read(_head);
        SWEX_ASSERT(tail - head < _cap, "work queue overflow");
        co_await m.write(_slots.at(tail % _cap), item);
        co_await m.write(_tail, tail + 1);
        co_await _lock.release(m);
    }

    /**
     * Pop one item. Returns true with the item, or false if the queue
     * is (currently) empty.
     */
    Task<bool>
    tryPop(Mem &m, Word &out)
    {
        co_await _lock.acquire(m);
        Word head = co_await m.read(_head);
        Word tail = co_await m.read(_tail);
        if (head == tail) {
            co_await _lock.release(m);
            co_return false;
        }
        out = co_await m.read(_slots.at(head % _cap));
        co_await m.write(_head, head + 1);
        co_await _lock.release(m);
        co_return true;
    }

    /**
     * Add a batch of items under a single lock acquisition (work
     * donation amortizes queue contention this way). Returns false,
     * queueing nothing, when the batch does not fit: the caller
     * keeps the items.
     */
    Task<bool>
    pushMany(Mem &m, const std::vector<Word> &items)
    {
        if (items.empty())
            co_return true;
        const Word n = static_cast<Word>(items.size());
        co_await m.fetchAdd(_pending, n);
        co_await _lock.acquire(m);
        Word tail = co_await m.read(_tail);
        Word head = co_await m.read(_head);
        if (tail - head + n > _cap) {
            co_await _lock.release(m);
            co_await m.fetchAdd(_pending, static_cast<Word>(0) - n);
            co_return false;
        }
        for (std::size_t i = 0; i < items.size(); ++i)
            co_await m.write(_slots.at((tail + i) % _cap), items[i]);
        co_await m.write(_tail, tail + n);
        co_await _lock.release(m);
        co_return true;
    }

    /**
     * Pop up to @p max items in one lock acquisition (at most half of
     * what is queued, so work stays spread). Returns the number
     * popped into @p out.
     */
    Task<std::size_t>
    tryPopMany(Mem &m, std::vector<Word> &out, std::size_t max)
    {
        out.clear();
        co_await _lock.acquire(m);
        Word head = co_await m.read(_head);
        Word tail = co_await m.read(_tail);
        Word avail = tail - head;
        std::size_t take = static_cast<std::size_t>(
            std::min<Word>(max, (avail + 1) / 2));
        for (std::size_t i = 0; i < take; ++i)
            out.push_back(
                co_await m.read(_slots.at((head + i) % _cap)));
        co_await m.write(_head, head + take);
        co_await _lock.release(m);
        co_return take;
    }

    /** Mark @p n popped items complete in one operation. */
    Task<void>
    finishItems(Mem &m, std::size_t n)
    {
        if (n > 0)
            co_await m.fetchAdd(_pending,
                                static_cast<Word>(0) - n);
    }

    /** True when no work is queued or in flight anywhere. */
    Task<bool>
    allDone(Mem &m)
    {
        Word pending = co_await m.read(_pending);
        co_return pending == 0;
    }

    /** Seed the queue before the run starts (setup backdoor). */
    void
    debugPush(Machine &m, Word item)
    {
        Word tail = m.debugRead(_tail);
        m.debugWrite(_slots.at(tail % _cap), item);
        m.debugWrite(_tail, tail + 1);
        m.debugWrite(_pending, m.debugRead(_pending) + 1);
    }

  private:
    SpinLock _lock;
    Addr _head = 0;
    Addr _tail = 0;
    Addr _pending = 0;
    SharedArray _slots;
    std::size_t _cap = 0;
};

} // namespace swex

#endif // SWEX_RUNTIME_SYNC_HH
