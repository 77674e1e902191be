/**
 * @file
 * A distributed work-stealing scheduler in the style of Mul-T's lazy
 * futures: each node parks surplus work in its own shared-memory
 * queue, idle nodes steal batches from nearby victims, and a
 * pool-wide outstanding-work counter provides termination detection.
 * Used by the dynamically-scheduled applications (TSP, AQ).
 */

#ifndef SWEX_RUNTIME_SCHEDULER_HH
#define SWEX_RUNTIME_SCHEDULER_HH

#include <deque>

#include "base/rng.hh"
#include "runtime/sync.hh"

namespace swex
{

class StealScheduler
{
  public:
    /** Per-thread scheduling state (lives in the thread coroutine). */
    struct Worker
    {
        explicit Worker(int tid, std::uint64_t seed = 0)
            : rng(seed * 131 + 17 + static_cast<std::uint64_t>(tid)),
              id(tid)
        {}

        std::deque<Word> local;
        std::size_t held = 0;        ///< popped items not yet finished
        Cycles idleBackoff = 120;
        Rng rng;
        int id;
        std::vector<Word> batch;
    };

    StealScheduler() = default;

    static StealScheduler
    create(Machine &m, std::size_t cap_per_node)
    {
        StealScheduler s;
        s._pending = m.allocOn(0, blockBytes, blockBytes);
        m.debugWrite(s._pending, 0);
        for (int node = 0; node < m.numNodes(); ++node)
            s._queues.push_back(WorkQueue::create(
                m, cap_per_node, node, s._pending));
        return s;
    }

    /** Seed initial work round-robin (setup backdoor). */
    void
    debugSeed(Machine &m, const std::vector<Word> &items)
    {
        for (std::size_t i = 0; i < items.size(); ++i)
            _queues[i % _queues.size()].debugPush(m, items[i]);
    }

    /**
     * Fetch the next work item. Prefers the local stack (depth
     * first), then the node's own queue, then steals from nearby
     * victims. Returns false when the whole pool has drained.
     */
    Task<bool>
    next(Mem &m, Worker &w, Word &out)
    {
        for (;;) {
            if (!w.local.empty()) {
                out = w.local.back();
                w.local.pop_back();
                co_return true;
            }
            WorkQueue &mine =
                _queues[static_cast<std::size_t>(w.id)];
            if (w.held > 0) {
                co_await mine.finishItems(m, w.held);
                w.held = 0;
            }
            std::size_t got = co_await mine.tryPopMany(m, w.batch, 16);
            if (got == 0) {
                // Steal from nearby victims; locality keeps the
                // worker sets of queue metadata small.
                for (int probe = 0; probe < 2 && got == 0; ++probe) {
                    // Neighborhood of 4 keeps each queue's reader set
                    // within the five hardware pointers.
                    auto victim = static_cast<std::size_t>(
                        (static_cast<std::size_t>(w.id) + 1 +
                         w.rng.below(4)) % _queues.size());
                    if (victim == static_cast<std::size_t>(w.id))
                        continue;
                    if (co_await _queues[victim].looksNonEmpty(m))
                        got = co_await _queues[victim].tryPopMany(
                            m, w.batch, 16);
                }
            }
            if (got > 0) {
                w.local.insert(w.local.end(), w.batch.begin(),
                               w.batch.end());
                w.held = got;
                w.idleBackoff = 120;
                continue;
            }
            if (co_await mine.allDone(m))
                co_return false;
            // Exponential idle backoff: under the software-only
            // directory every poll traps a home processor, so idle
            // nodes must shed load.
            co_await m.work(w.idleBackoff);
            if (w.idleBackoff < 4000)
                w.idleBackoff *= 2;
        }
    }

    /**
     * Add one child work item (local; surplus parked for thieves). A
     * donation the worker's queue has no room for stays at the
     * bottom of the stack: with few thieves the queue only drains
     * when the stack runs dry.
     */
    Task<void>
    add(Mem &m, Worker &w, Word item)
    {
        w.local.push_back(item);
        if (w.local.size() > 16) {
            w.batch.clear();
            for (int k = 0; k < 8 && !w.local.empty(); ++k) {
                w.batch.push_back(w.local.front());
                w.local.pop_front();
            }
            if (!co_await _queues[static_cast<std::size_t>(w.id)]
                     .pushMany(m, w.batch))
                w.local.insert(w.local.begin(), w.batch.begin(),
                               w.batch.end());
        }
    }

  private:
    std::vector<WorkQueue> _queues;
    Addr _pending = 0;
};

} // namespace swex

#endif // SWEX_RUNTIME_SCHEDULER_HH
