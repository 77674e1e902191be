/**
 * @file
 * WATER: N-body molecular dynamics from SPLASH (paper Section 6), run
 * with 64 molecules. Each node owns a slice of molecules; every step
 * it reads the positions of all other molecules (widely shared,
 * read-only within the phase), accumulates pairwise forces locally,
 * and then updates its owned molecules behind a barrier. Fixed-point
 * arithmetic keeps the result exactly order-independent.
 */

#ifndef SWEX_APPS_WATER_HH
#define SWEX_APPS_WATER_HH

#include <vector>

#include "apps/app.hh"
#include "runtime/shmem.hh"
#include "runtime/sync.hh"

namespace swex
{

struct WaterConfig
{
    int molecules = 64;
    int steps = 2;
    std::uint64_t seed = 5;
    Cycles pairWork = 3000; ///< compute per interacting pair
};

class WaterApp : public App
{
  public:
    explicit WaterApp(const WaterConfig &cfg);

    const char *name() const override { return "WATER"; }
    void setup(Machine &m) override;
    Task<void> thread(Mem &m, int tid) override;
    Task<void> sequential(Mem &m) override;
    bool verify(Machine &m) override;

    /** Blocks setup() takes on node 0, its busiest node, on a
     *  @p machine_nodes-node machine. */
    static std::uint64_t setupBlocks(const WaterConfig &c,
                                     int machine_nodes);

  private:
    struct M { std::int64_t x, y, z, vx, vy, vz; };

    M initialMolecule(int idx) const;

    /** Pairwise force contribution of j on i (host and kernel). */
    static void forceOn(std::int64_t xi, std::int64_t yi,
                        std::int64_t zi, std::int64_t xj,
                        std::int64_t yj, std::int64_t zj,
                        std::int64_t &fx, std::int64_t &fy,
                        std::int64_t &fz);

    void computeGroundTruth();

    /**
     * The step loop over thread @p tid's slice of @p nthreads: the
     * parallel thread (synchronized by two barriers per step) and,
     * as thread 0 of 1 without barriers, the sequential reference.
     */
    Task<void> kernel(Mem &m, int tid, int nthreads, bool sync);

    WaterConfig cfg;
    std::uint64_t _checksum = 0;

    SharedArray mols;     ///< 6 words per molecule, blocked by owner
    TreeBarrier barProto;
};

} // namespace swex

#endif // SWEX_APPS_WATER_HH
