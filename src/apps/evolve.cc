#include "apps/evolve.hh"

namespace swex
{

EvolveApp::EvolveApp(const EvolveConfig &config) : cfg(config)
{
    SWEX_ASSERT(cfg.dimensions >= 4 && cfg.dimensions <= 20,
                "EVOLVE dimensions out of range");
    numVertices = 1u << cfg.dimensions;
}

Word
EvolveApp::fitnessOf(unsigned vertex) const
{
    // Deterministic fitness with long ridges: mix a hash with a
    // popcount gradient so walks are non-trivial and converge onto
    // a small number of popular maxima.
    std::uint64_t h = vertex * 0x9e3779b97f4a7c15ULL + cfg.seed;
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 32;
    auto noise = static_cast<Word>(h & 0xffff);
    auto gradient = static_cast<Word>(
        __builtin_popcount(vertex) * 8000);
    return gradient + noise;
}

unsigned
EvolveApp::startVertex(int tid, int walk) const
{
    std::uint64_t h = (static_cast<std::uint64_t>(tid) << 20) +
                      static_cast<std::uint64_t>(walk) * 7919 +
                      cfg.seed * 31;
    h *= 0x2545f4914f6cdd1dULL;
    h ^= h >> 33;
    return static_cast<unsigned>(h) & (numVertices - 1);
}

std::pair<unsigned, std::uint64_t>
EvolveApp::hostWalk(unsigned start) const
{
    unsigned cur = start;
    std::uint64_t steps = 0;
    for (;;) {
        Word cur_fit = fitnessOf(cur);
        unsigned best_nbr = cur;
        Word best_fit = cur_fit;
        for (int d = 0; d < cfg.dimensions; ++d) {
            unsigned nbr = cur ^ (1u << d);
            Word f = fitnessOf(nbr);
            if (f > best_fit) {
                best_fit = f;
                best_nbr = nbr;
            }
        }
        if (best_nbr == cur)
            return {cur, steps};
        cur = best_nbr;
        ++steps;
    }
}

void
EvolveApp::computeGroundTruth(int nthreads)
{
    truthThreads = nthreads;
    expectedBest = 0;
    expectedSteps = 0;
    for (int tid = 0; tid < nthreads; ++tid) {
        for (int w = 0; w < cfg.walksPerThread; ++w) {
            auto [end, steps] = hostWalk(startVertex(tid, w));
            expectedSteps += steps;
            Word f = fitnessOf(end);
            if (f > expectedBest)
                expectedBest = f;
        }
    }
}

std::uint64_t
EvolveApp::setupBlocks(const EvolveConfig &c, int nthreads,
                       int machine_nodes)
{
    // As setup() allocates: the fitness table, the best slots, and
    // the best and steps words.
    return SharedArray::nodeBlocks(std::uint64_t{1} << c.dimensions,
                                   Layout::Interleaved, machine_nodes) +
           SharedArray::nodeBlocks(
               static_cast<std::uint64_t>(nthreads) * wordsPerBlock,
               Layout::Blocked, machine_nodes) +
           2;
}

void
EvolveApp::setup(Machine &m)
{
    observedSteps = 0;
    fitness = SharedArray(m, numVertices, Layout::Interleaved);
    for (unsigned v = 0; v < numVertices; ++v)
        m.debugWrite(fitness.at(v), fitnessOf(v));

    SWEX_ASSERT(truthThreads > 0,
                "call computeGroundTruth before running EVOLVE");
    bestSlots = SharedArray(
        m, static_cast<std::size_t>(truthThreads) * wordsPerBlock,
        Layout::Blocked);
    bestSlots.fill(m, 0);
    bestAddr = m.allocOn(0, blockBytes, blockBytes);
    stepsAddr = m.allocOn(0, blockBytes, blockBytes);
    m.debugWrite(bestAddr, 0);
    m.debugWrite(stepsAddr, 0);
}

Task<void>
EvolveApp::thread(Mem &m, int tid)
{
    std::uint64_t my_steps = 0;
    Word my_best = 0;
    for (int w = 0; w < cfg.walksPerThread; ++w) {
        unsigned cur = startVertex(tid, w);
        for (;;) {
            Word cur_fit = co_await m.read(fitness.at(cur));
            unsigned best_nbr = cur;
            Word best_fit = cur_fit;
            for (int d = 0; d < cfg.dimensions; ++d) {
                unsigned nbr = cur ^ (1u << d);
                Word f = co_await m.read(fitness.at(nbr));
                if (f > best_fit) {
                    best_fit = f;
                    best_nbr = nbr;
                }
            }
            co_await m.work(cfg.stepWork);
            if (best_nbr == cur)
                break;
            cur = best_nbr;
            ++my_steps;
        }

        // The walk's endpoint fitness only feeds a thread-local max;
        // no shared state decides control flow here, which keeps the
        // op stream portable across machine models.
        Word end_fit = co_await m.read(fitness.at(cur));
        if (end_fit > my_best)
            my_best = end_fit;
    }

    // Publish into a private block, then let thread 0 reduce after
    // the barrier. The slots are still widely read (thread 0 pulls
    // every one of them), preserving the hot-record sharing the
    // paper describes, without a timing-dependent lock handoff.
    co_await m.write(bestSlots.at(
        static_cast<std::size_t>(tid) * wordsPerBlock), my_best);
    co_await m.fetchAdd(stepsAddr, my_steps);
    observedSteps += my_steps;
    co_await m.hwBarrier();
    if (tid == 0) {
        Word best = 0;
        for (int t = 0; t < truthThreads; ++t) {
            Word f = co_await m.read(bestSlots.at(
                static_cast<std::size_t>(t) * wordsPerBlock));
            if (f > best)
                best = f;
        }
        co_await m.write(bestAddr, best);
    }
}

Task<void>
EvolveApp::sequential(Mem &m)
{
    // All walks of all logical threads, on one node, no locking.
    SWEX_ASSERT(truthThreads > 0,
                "call computeGroundTruth before running EVOLVE");
    Word best = 0;
    std::uint64_t steps = 0;
    for (int tid = 0; tid < truthThreads; ++tid) {
        for (int w = 0; w < cfg.walksPerThread; ++w) {
            unsigned cur = startVertex(tid, w);
            for (;;) {
                Word cur_fit = co_await m.read(fitness.at(cur));
                unsigned best_nbr = cur;
                Word best_fit = cur_fit;
                for (int d = 0; d < cfg.dimensions; ++d) {
                    unsigned nbr = cur ^ (1u << d);
                    Word f = co_await m.read(fitness.at(nbr));
                    if (f > best_fit) {
                        best_fit = f;
                        best_nbr = nbr;
                    }
                }
                co_await m.work(cfg.stepWork);
                if (best_nbr == cur)
                    break;
                cur = best_nbr;
                ++steps;
            }
            Word end_fit = co_await m.read(fitness.at(cur));
            if (end_fit > best)
                best = end_fit;
        }
    }
    co_await m.write(bestAddr, best);
    co_await m.write(stepsAddr, steps);
    observedSteps = steps;
}

bool
EvolveApp::verify(Machine &m)
{
    if (truthThreads == 0)
        return false;
    return m.debugRead(bestAddr) == expectedBest &&
           m.debugRead(stepsAddr) == expectedSteps;
}

} // namespace swex
