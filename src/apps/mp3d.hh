/**
 * @file
 * MP3D: rarefied-fluid particle simulation from SPLASH (paper
 * Section 6; locking off, as the paper runs it). Particles are
 * partitioned across nodes; every step each particle moves and
 * deposits itself into a space cell of a shared 3-D grid. The cell
 * array is written by all nodes -- the notoriously poor locality that
 * gives MP3D its low speedups. Collisions are driven by the previous
 * step's cell occupancy (double-buffered), which keeps the parallel
 * computation bit-identical to the sequential reference.
 *
 * Positions and velocities use fixed-point arithmetic so results are
 * exactly order-independent.
 */

#ifndef SWEX_APPS_MP3D_HH
#define SWEX_APPS_MP3D_HH

#include "apps/app.hh"
#include "runtime/shmem.hh"
#include "runtime/sync.hh"

namespace swex
{

struct Mp3dConfig
{
    int particles = 1024;
    int steps = 5;
    int cellsX = 8, cellsY = 4, cellsZ = 4;
    std::uint64_t seed = 99;
    Cycles moveWork = 300;  ///< compute per particle move
};

class Mp3dApp : public App
{
  public:
    explicit Mp3dApp(const Mp3dConfig &cfg);

    const char *name() const override { return "MP3D"; }
    void setup(Machine &m) override;
    Task<void> thread(Mem &m, int tid) override;
    Task<void> sequential(Mem &m) override;
    bool verify(Machine &m) override;

    /** Blocks setup() takes on node 0, its busiest node, on a
     *  @p machine_nodes-node machine. */
    static std::uint64_t setupBlocks(const Mp3dConfig &c,
                                     int machine_nodes);

  private:
    // Fixed-point: 44.20 in a 64-bit word, coordinates wrap in
    // [0, cells* << fp) per axis.
    static constexpr int fpBits = 20;

    struct P { std::uint64_t x, y, z, vx, vy, vz; };

    P initialParticle(int idx) const;
    int cellOf(const P &p) const;
    void hostStep(std::vector<P> &ps,
                  const std::vector<std::uint32_t> &prev_counts,
                  std::vector<std::uint32_t> &new_counts) const;
    void computeGroundTruth();

    /** Move one particle in place (shared by host and kernel). */
    void moveParticle(P &p, std::uint32_t prev_cell_count,
                      int step_parity) const;

    /**
     * The step loop over thread @p tid's slice of @p nthreads: the
     * parallel thread (synchronized by two barriers per step) and,
     * as thread 0 of 1 without barriers, the sequential reference.
     */
    Task<void> kernel(Mem &m, int tid, int nthreads, bool sync);

    Mp3dConfig cfg;
    int numCells = 0;
    std::uint64_t axisX = 0, axisY = 0, axisZ = 0;
    std::uint64_t _checksum = 0;

    SharedArray particles;    ///< 6 words each, blocked by owner
    SharedArray cellsA;       ///< occupancy counters, interleaved
    SharedArray cellsB;
    TreeBarrier barProto;
};

} // namespace swex

#endif // SWEX_APPS_MP3D_HH
