#include "exp/pool.hh"

#include <algorithm>
#include <atomic>
#include <numeric>

namespace swex
{

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = 1;
    workers.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> hold(mutex);
        stopping = true;
    }
    workReady.notify_all();
    for (std::thread &w : workers)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::unique_lock<std::mutex> hold(mutex);
        tasks.push_back(std::move(task));
    }
    workReady.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> hold(mutex);
    allDone.wait(hold, [this] { return tasks.empty() && active == 0; });
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> hold(mutex);
            workReady.wait(hold, [this] {
                return stopping || !tasks.empty();
            });
            if (tasks.empty())
                return;   // stopping with nothing left to run
            task = std::move(tasks.front());
            tasks.pop_front();
            ++active;
        }
        task();
        {
            std::unique_lock<std::mutex> hold(mutex);
            --active;
            if (tasks.empty() && active == 0)
                allDone.notify_all();
        }
    }
}

void
parallelFor(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)> &fn)
{
    parallelFor(n, jobs, {}, fn);
}

std::vector<std::size_t>
longestFirstOrder(const std::vector<double> &costs)
{
    std::vector<std::size_t> order(costs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    // stable_sort: equal-cost indices keep submission order, so the
    // claimed sequence is a pure function of the cost vector.
    std::stable_sort(order.begin(), order.end(),
                     [&costs](std::size_t a, std::size_t b) {
                         return costs[a] > costs[b];
                     });
    return order;
}

void
parallelFor(std::size_t n, unsigned jobs,
            const std::vector<double> &costs,
            const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    if (jobs <= 1 || n == 1) {
        // Serial execution gains nothing from reordering; keep the
        // natural order so single-job traces stay easy to follow.
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    // Natural order, unless a cost per index asks for longest first.
    const std::vector<std::size_t> order =
        costs.size() == n ? longestFirstOrder(costs)
                          : std::vector<std::size_t>{};

    unsigned threads = jobs;
    if (static_cast<std::size_t>(threads) > n)
        threads = static_cast<unsigned>(n);

    // One shared cursor over the claim order: uniform sweep grids
    // self-balance, and the order indices are *claimed* in does not
    // matter because results are merged by index afterwards.
    std::atomic<std::size_t> next{0};
    ThreadPool pool(threads);
    for (unsigned t = 0; t < threads; ++t) {
        pool.submit([&] {
            for (;;) {
                std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                fn(order.empty() ? i : order[i]);
            }
        });
    }
    pool.wait();
}

} // namespace swex
