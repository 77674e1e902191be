/**
 * @file
 * Host-side thread pool for the parallel sweep tier. Independent
 * simulations (one Machine per ExperimentSpec, no shared mutable
 * state) are farmed out to a small set of host threads; the Runner
 * merges their results back in deterministic spec order, so every
 * sweep is bit-identical regardless of how many jobs executed it.
 *
 * The pool is deliberately minimal: tasks must not throw (simulator
 * errors go through panic()/fatal(), which abort the process), and
 * there is no work stealing or priority — sweep grids are uniform
 * enough that an atomic index over the job list keeps every thread
 * busy until the tail.
 */

#ifndef SWEX_EXP_POOL_HH
#define SWEX_EXP_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace swex
{

class ThreadPool
{
  public:
    /** Spawns @p threads workers (at least one). */
    explicit ThreadPool(unsigned threads);

    /** Waits for every submitted task, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one task; runs on some worker thread. */
    void submit(std::function<void()> task);

    /** Block until every task submitted so far has completed. */
    void wait();

    unsigned size() const { return static_cast<unsigned>(workers.size()); }

  private:
    void workerLoop();

    std::mutex mutex;
    std::condition_variable workReady;   ///< workers wait for tasks
    std::condition_variable allDone;     ///< wait() waits for drain
    std::deque<std::function<void()>> tasks;
    std::vector<std::thread> workers;
    std::size_t active = 0;   ///< tasks currently executing
    bool stopping = false;
};

/**
 * Run fn(0..n-1), distributing the indices over min(jobs, n) host
 * threads. jobs <= 1 (or n <= 1) executes inline on the caller with
 * no thread machinery at all, so a serial sweep stays a plain loop.
 * Blocks until every index has completed. fn must be safe to call
 * concurrently for distinct indices.
 */
void parallelFor(std::size_t n, unsigned jobs,
                 const std::function<void(std::size_t)> &fn);

/**
 * Index permutation that visits the highest-cost indices first
 * (stable: equal costs keep their relative order). Scheduling the
 * longest simulations before the short ones keeps a sweep's critical
 * path from ending on a straggler claimed at the tail.
 */
std::vector<std::size_t>
longestFirstOrder(const std::vector<double> &costs);

/**
 * parallelFor with a per-index cost estimate: worker threads claim
 * indices in longest-first order instead of 0..n-1. Purely a
 * scheduling hint — every index still runs exactly once, and callers
 * that merge results by index are unaffected. An empty or
 * wrong-length @p costs falls back to natural order.
 */
void parallelFor(std::size_t n, unsigned jobs,
                 const std::vector<double> &costs,
                 const std::function<void(std::size_t)> &fn);

} // namespace swex

#endif // SWEX_EXP_POOL_HH
