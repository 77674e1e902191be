/**
 * @file
 * EVOLVE: genome evolution as hypercube traversal (paper Section 6).
 * A fitness value is attached to every vertex of a d-dimensional
 * hypercube; walkers hill-climb from seeded start vertices to local
 * maxima, reading the fitness of all d neighbors at each step, and a
 * globally shared record tracks the best maximum found. Popular
 * ridges are read by many nodes, producing the broad worker-set
 * distribution of Figure 6.
 *
 * The fitness table is written once in setup() and only read during
 * the run, so every walk is a pure function of (params, nodes, tid);
 * the global best is combined through per-thread slots, a hardware
 * barrier, and a thread-0 reduction. That keeps the op stream
 * trace-portable (registry tracePortable contract) -- no lock whose
 * acquisition order would depend on timing.
 */

#ifndef SWEX_APPS_EVOLVE_HH
#define SWEX_APPS_EVOLVE_HH

#include <vector>

#include "apps/app.hh"
#include "runtime/shmem.hh"

namespace swex
{

struct EvolveConfig
{
    int dimensions = 12;        ///< hypercube dimension (paper: 12)
    int walksPerThread = 8;
    std::uint64_t seed = 7;
    Cycles stepWork = 2500;     ///< compute per hill-climbing step
};

class EvolveApp : public App
{
  public:
    explicit EvolveApp(const EvolveConfig &cfg);

    const char *name() const override { return "EVOLVE"; }
    void setup(Machine &m) override;
    Task<void> thread(Mem &m, int tid) override;
    Task<void> sequential(Mem &m) override;
    bool verify(Machine &m) override;

    /** Host-side expectations (per thread count). */
    void computeGroundTruth(int nthreads);

    /** Blocks setup() takes on node 0, its busiest node, for
     *  @p nthreads threads on a @p machine_nodes-node machine. */
    static std::uint64_t setupBlocks(const EvolveConfig &c, int nthreads,
                                     int machine_nodes);

  private:
    Word fitnessOf(unsigned vertex) const;
    unsigned startVertex(int tid, int walk) const;

    /** Host model of one walk; returns (end vertex, steps). */
    std::pair<unsigned, std::uint64_t> hostWalk(unsigned start) const;

    EvolveConfig cfg;
    unsigned numVertices = 0;

    // Host-side expectations
    Word expectedBest = 0;
    std::uint64_t expectedSteps = 0;
    int truthThreads = 0;

    SharedArray fitness;
    SharedArray bestSlots; ///< per-thread local maxima (one block each)
    Addr bestAddr = 0;     ///< globally shared best fitness (hot)
    Addr stepsAddr = 0;    ///< total steps taken (hot counter)

    std::uint64_t observedSteps = 0;
};

} // namespace swex

#endif // SWEX_APPS_EVOLVE_HH
