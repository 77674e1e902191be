/**
 * @file
 * SMGRID: static multigrid solver for an elliptical PDE (paper
 * Section 6). Jacobi-style relaxation on a pyramid of grids with
 * V-cycles; rows are block-partitioned over the nodes, so only a
 * subset of nodes works on the coarse levels (which bounds speedup,
 * as the paper observes), and neighboring partitions share boundary
 * rows (small worker sets).
 *
 * The partition is a pure function of (params, nthreads, tid) and
 * all phases synchronize on the machine's hardware barrier; the
 * final residual is combined through per-thread slots and a thread-0
 * reduction. No lock, no spin: the op stream is trace-portable
 * (registry tracePortable contract) and one recorded trace replays
 * under any protocol or machine model.
 */

#ifndef SWEX_APPS_SMGRID_HH
#define SWEX_APPS_SMGRID_HH

#include <vector>

#include "apps/app.hh"
#include "runtime/shmem.hh"

namespace swex
{

struct SmgridConfig
{
    int fineSize = 33;     ///< finest grid is fineSize x fineSize
    int levels = 5;        ///< pyramid depth
    int sweeps = 2;        ///< Jacobi sweeps per relaxation phase
    int vcycles = 2;
    Cycles pointWork = 150; ///< compute per point update
};

class SmgridApp : public App
{
  public:
    explicit SmgridApp(const SmgridConfig &cfg);

    const char *name() const override { return "SMGRID"; }
    void setup(Machine &m) override;
    Task<void> thread(Mem &m, int tid) override;
    Task<void> sequential(Mem &m) override;
    bool verify(Machine &m) override;

    /** Sum-of-squares residual on the fine grid after the run. */
    double finalResidual(Machine &m) const;

    /** Blocks setup() takes on node 0, its busiest node, on a
     *  @p machine_nodes-node machine. */
    static std::uint64_t setupBlocks(const SmgridConfig &c,
                                     int machine_nodes);

  private:
    /** Grid size of each level, finest first. */
    static std::vector<int> levelSizes(const SmgridConfig &c);

    Addr uAt(int level, int i, int j) const;
    Addr fAt(int level, int i, int j) const;
    Addr tAt(int level, int i, int j) const;

    /** Rows [lo, hi) of interior this thread owns at a level. */
    std::pair<int, int> rowRange(int level, int tid,
                                 int nthreads) const;

    /** The whole V-cycle schedule; sequential() runs kernel(m,0,1). */
    Task<void> kernel(Mem &m, int tid, int nthreads);

    Task<void> relaxSweeps(Mem &m, int level, int tid, int nthreads);
    Task<void> restrictResidual(Mem &m, int level, int tid,
                                int nthreads);
    Task<void> interpolateAdd(Mem &m, int level, int tid,
                              int nthreads);

    SmgridConfig cfg;
    std::vector<int> sizes;

    std::vector<SharedArray> uArr;
    std::vector<SharedArray> fArr;
    std::vector<SharedArray> tArr;
    SharedArray resSlots;  ///< per-thread residual partial sums
    Addr resAddr = 0;
    double initialResidual = 0;
};

} // namespace swex

#endif // SWEX_APPS_SMGRID_HH
