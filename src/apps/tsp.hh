/**
 * @file
 * TSP: branch-and-bound traveling salesman (paper Section 6). Partial
 * tours live in a centralized work queue; the best-path bound is
 * seeded with the optimal tour cost so the amount of work is
 * deterministic (as in the paper). The bound and a parameter block
 * are shared by every node and -- in the default layout -- collide in
 * the direct-mapped cache with the kernel's instruction footprint,
 * reproducing the instruction/data thrashing of Figure 3.
 */

#ifndef SWEX_APPS_TSP_HH
#define SWEX_APPS_TSP_HH

#include <vector>

#include "apps/app.hh"
#include "runtime/scheduler.hh"
#include "runtime/shmem.hh"
#include "runtime/sync.hh"

namespace swex
{

struct TspConfig
{
    int numCities = 10;
    std::uint64_t seed = 42;
    Cycles expandWork = 1500;   ///< compute per tour expansion
    bool collideLayout = true;  ///< hot blocks collide with ifetch
    std::size_t frontierTarget = 256;  ///< pre-split frontier size
};

class TspApp : public App
{
  public:
    /** Entries in each node's work-stealing queue. */
    static constexpr std::size_t queueEntries = 2048;

    /**
     * The largest `frontier` whose pre-split fits the work queues of
     * a @p machine_nodes-node machine: the pre-split holds at most
     * frontier + cities - 3 entries, dealt round-robin over one queue
     * per node.
     */
    static std::uint64_t
    maxFrontier(int cities, int machine_nodes)
    {
        return queueEntries * static_cast<std::uint64_t>(machine_nodes) -
               static_cast<std::uint64_t>(cities - 3);
    }

    explicit TspApp(const TspConfig &cfg);

    const char *name() const override { return "TSP"; }
    void setup(Machine &m) override;
    Task<void> thread(Mem &m, int tid) override;
    Task<void> sequential(Mem &m) override;
    bool verify(Machine &m) override;
    std::vector<Addr> footprint(Machine &m, int tid) const override;

    /** Host-side ground truth (available after construction). */
    int optimalCost() const { return _optimal; }
    std::uint64_t expectedExpansions() const { return _expected; }

    /** Expansions remaining after the pre-split frontier. */
    std::uint64_t
    expectedParallelExpansions() const
    {
        return _expected - presplitExpansions;
    }

  private:
    // Tour word encoding: visited mask [0..15], city [16..23],
    // accumulated cost [24..47].
    static Word
    packTour(unsigned mask, int city, int cost)
    {
        return static_cast<Word>(mask) |
               (static_cast<Word>(city) << 16) |
               (static_cast<Word>(cost) << 24);
    }

    Task<void> worker(Mem &m, bool seed_root);
    void computeGroundTruth();

    TspConfig cfg;
    std::vector<int> dist;      ///< host copy, n x n
    int minEdge = 0;
    int _optimal = 0;
    std::uint64_t _expected = 0;

    /**
     * The parallel run seeds the queue with a breadth-first frontier
     * (as a work-distribution phase would), so startup does not
     * serialize through the queue. Host-side bookkeeping keeps the
     * expansion counts exact.
     */
    std::vector<Word> frontier;
    std::uint64_t presplitExpansions = 0;
    bool lastRunParallel = false;

    // Shared-memory layout (valid after setup)
    Addr bestAddr = 0;          ///< hot block 1: the best-path bound
    Addr paramAddr = 0;         ///< hot block 2: minEdge / numCities
    SharedArray distArr;

    /** Distributed work-stealing scheduler (Mul-T style). */
    StealScheduler sched;

    std::uint64_t expansions = 0;
};

} // namespace swex

#endif // SWEX_APPS_TSP_HH
