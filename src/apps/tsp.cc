#include "apps/tsp.hh"

#include <algorithm>
#include <deque>

#include "base/rng.hh"

namespace swex
{

TspApp::TspApp(const TspConfig &config) : cfg(config)
{
    SWEX_ASSERT(cfg.numCities >= 3 && cfg.numCities <= 16,
                "TSP supports 3..16 cities");
    // Deterministic symmetric distance matrix.
    int n = cfg.numCities;
    dist.assign(static_cast<std::size_t>(n) * n, 0);
    Rng rng(cfg.seed);
    minEdge = 1 << 20;
    for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
            int d = static_cast<int>(rng.below(90)) + 10;
            dist[static_cast<std::size_t>(i) * n + j] = d;
            dist[static_cast<std::size_t>(j) * n + i] = d;
            minEdge = std::min(minEdge, d);
        }
    }
    computeGroundTruth();
}

void
TspApp::computeGroundTruth()
{
    const int n = cfg.numCities;

    // Pass 1: exact optimal tour cost by exhaustive DFS.
    int best = 1 << 20;
    struct Frame { unsigned mask; int city; int cost; };
    std::vector<Frame> stack{{1u, 0, 0}};
    while (!stack.empty()) {
        Frame f = stack.back();
        stack.pop_back();
        int depth = __builtin_popcount(f.mask);
        for (int next = 0; next < n; ++next) {
            if (f.mask & (1u << next))
                continue;
            int ncost =
                f.cost + dist[static_cast<std::size_t>(f.city) * n +
                              next];
            if (depth + 1 == n) {
                int total =
                    ncost + dist[static_cast<std::size_t>(next) * n];
                best = std::min(best, total);
            } else if (ncost < best) {
                stack.push_back({f.mask | (1u << next), next, ncost});
            }
        }
    }
    _optimal = best;

    // Pass 2: count expansions of the bounded search that the kernel
    // performs with the bound seeded at the optimum. The pruning rule
    // must match the kernel exactly.
    _expected = 0;
    stack.assign(1, {1u, 0, 0});
    while (!stack.empty()) {
        Frame f = stack.back();
        stack.pop_back();
        ++_expected;
        int depth = __builtin_popcount(f.mask);
        for (int next = 0; next < n; ++next) {
            if (f.mask & (1u << next))
                continue;
            int ncost =
                f.cost + dist[static_cast<std::size_t>(f.city) * n +
                              next];
            if (depth + 1 == n)
                continue;   // complete tours never beat the seed
            int bound = ncost + (n - depth - 1) * minEdge;
            if (bound < _optimal)
                stack.push_back({f.mask | (1u << next), next, ncost});
        }
    }

    // Pass 3: breadth-first pre-split of the search tree into an
    // initial frontier (same pruning rule).
    frontier.clear();
    presplitExpansions = 0;
    std::deque<Frame> bfs{{1u, 0, 0}};
    while (!bfs.empty() && bfs.size() < cfg.frontierTarget) {
        Frame f = bfs.front();
        bfs.pop_front();
        ++presplitExpansions;
        int depth = __builtin_popcount(f.mask);
        bool expanded = false;
        for (int next = 0; next < n; ++next) {
            if (f.mask & (1u << next))
                continue;
            int ncost =
                f.cost + dist[static_cast<std::size_t>(f.city) * n +
                              next];
            if (depth + 1 == n)
                continue;
            int bound = ncost + (n - depth - 1) * minEdge;
            if (bound < _optimal) {
                bfs.push_back({f.mask | (1u << next), next, ncost});
                expanded = true;
            }
        }
        (void)expanded;
        if (depth + 2 >= n)
            break;   // don't pre-split below the leaves
    }
    for (const Frame &f : bfs)
        frontier.push_back(packTour(f.mask, f.city, f.cost));
}

void
TspApp::setup(Machine &m)
{
    const int n = cfg.numCities;
    expansions = 0;

    // The two hot, globally-shared blocks. In the colliding layout
    // they map to the cache sets occupied by the kernel's instruction
    // footprint (sets 0 and 1), as the paper found for TSP.
    unsigned best_idx = cfg.collideLayout ? 0 : 2048;
    unsigned param_idx = cfg.collideLayout ? 1 : 2049;
    bestAddr = m.allocAtIndex(0, blockBytes, best_idx);
    paramAddr = m.allocAtIndex(0, blockBytes, param_idx);
    m.debugWrite(bestAddr, static_cast<Word>(_optimal));
    m.debugWrite(paramAddr, static_cast<Word>(minEdge));
    m.debugWrite(paramAddr + 8, static_cast<Word>(n));

    distArr = SharedArray(m, static_cast<std::size_t>(n) * n,
                          Layout::Interleaved);
    for (int i = 0; i < n * n; ++i)
        m.debugWrite(distArr.at(static_cast<std::size_t>(i)),
                     static_cast<Word>(dist[static_cast<std::size_t>(
                         i)]));

    // Distributed work-stealing scheduler (Mul-T's lazy futures
    // resolve locally; idle processors steal).
    sched = StealScheduler::create(m, queueEntries);
    sched.debugSeed(m, frontier);
}

std::vector<Addr>
TspApp::footprint(Machine &m, int tid) const
{
    // The TSP kernel's inner loop occupies 8 instruction blocks that
    // map to cache sets 0..7 (instrBase is segment-aligned).
    std::vector<Addr> blocks;
    Addr base = m.instrBase(static_cast<NodeId>(tid));
    for (int k = 0; k < 8; ++k)
        blocks.push_back(base + static_cast<Addr>(k) * blockBytes);
    return blocks;
}

Task<void>
TspApp::worker(Mem &m, bool seed_root)
{
    // Mul-T-style execution: expand depth-first on a private stack
    // (futures resolved locally); surplus work parks in this node's
    // queue and idle processors steal it (see StealScheduler).
    (void)seed_root;
    const int n = cfg.numCities;
    StealScheduler::Worker w(m.id(), cfg.seed);

    Word item = 0;
    while (co_await sched.next(m, w, item)) {
        unsigned mask = static_cast<unsigned>(item & 0xffff);
        int city = static_cast<int>((item >> 16) & 0xff);
        int cost = static_cast<int>(item >> 24);
        int depth = __builtin_popcount(mask);

        ++expansions;

        for (int next = 0; next < n; ++next) {
            if (mask & (1u << next))
                continue;
            // Per-candidate compute, interleaved with consulting the
            // bound and parameter blocks: the loop's instructions and
            // these two globally-shared blocks fight for the same
            // cache sets (the Figure 3 thrashing mechanism).
            co_await m.work(cfg.expandWork / static_cast<Cycles>(n));
            Word best = co_await m.read(bestAddr);
            Word min_edge = co_await m.read(paramAddr);
            Word d = co_await m.read(distArr.at(
                static_cast<std::size_t>(city) * n + next));
            int ncost = cost + static_cast<int>(d);
            if (depth + 1 == n) {
                Word dret = co_await m.read(distArr.at(
                    static_cast<std::size_t>(next) * n));
                int total = ncost + static_cast<int>(dret);
                if (total < static_cast<int>(best)) {
                    // Never taken with a seeded optimal bound, but
                    // kept for generality (unseeded runs).
                    co_await m.write(bestAddr,
                                     static_cast<Word>(total));
                }
            } else {
                int bound = ncost + (n - depth - 1) *
                                        static_cast<int>(min_edge);
                if (bound < static_cast<int>(best))
                    co_await sched.add(
                        m, w,
                        packTour(mask | (1u << next), next, ncost));
            }
        }
    }
}

Task<void>
TspApp::thread(Mem &m, int tid)
{
    lastRunParallel = true;
    co_await worker(m, tid == 0);
}

Task<void>
TspApp::sequential(Mem &m)
{
    // Same algorithm on a private stack: no queue, no locks.
    lastRunParallel = false;
    const int n = cfg.numCities;
    struct Frame { unsigned mask; int city; int cost; };
    std::vector<Frame> stack{{1u, 0, 0}};

    while (!stack.empty()) {
        Frame f = stack.back();
        stack.pop_back();
        int depth = __builtin_popcount(f.mask);

        ++expansions;

        for (int next = 0; next < n; ++next) {
            if (f.mask & (1u << next))
                continue;
            co_await m.work(cfg.expandWork / static_cast<Cycles>(n));
            Word best = co_await m.read(bestAddr);
            Word min_edge = co_await m.read(paramAddr);
            Word d = co_await m.read(distArr.at(
                static_cast<std::size_t>(f.city) * n + next));
            int ncost = f.cost + static_cast<int>(d);
            if (depth + 1 == n) {
                Word dret = co_await m.read(distArr.at(
                    static_cast<std::size_t>(next) * n));
                int total = ncost + static_cast<int>(dret);
                if (total < static_cast<int>(best))
                    co_await m.write(bestAddr,
                                     static_cast<Word>(total));
            } else {
                int bound = ncost + (n - depth - 1) *
                                        static_cast<int>(min_edge);
                if (bound < static_cast<int>(best))
                    stack.push_back(
                        {f.mask | (1u << next), next, ncost});
            }
        }
    }
}

bool
TspApp::verify(Machine &m)
{
    if (m.debugRead(bestAddr) != static_cast<Word>(_optimal))
        return false;
    return expansions == (lastRunParallel
                              ? expectedParallelExpansions()
                              : _expected);
}

} // namespace swex
