/**
 * @file
 * AQ: adaptive quadrature of x^4 * y^4 over the square ((0,0),(2,2))
 * with an error tolerance of 0.005 (paper Section 6). Rectangles that
 * need refinement are pushed onto a centralized work queue; all
 * communication is producer-consumer, so the paper expects every
 * protocol with at least one hardware pointer to perform alike.
 */

#ifndef SWEX_APPS_AQ_HH
#define SWEX_APPS_AQ_HH

#include "apps/app.hh"
#include "runtime/scheduler.hh"
#include "runtime/shmem.hh"
#include "runtime/sync.hh"

namespace swex
{

struct AqConfig
{
    double tolerance = 1e-5;   // scaled from the paper's 0.005 (see DESIGN.md)
    int maxDepth = 14;
    Cycles evalWork = 4000;  ///< compute per rectangle evaluation
};

/** A configuration's refinement tree as the host walks it: what a
 *  correct run evaluates and sums. */
struct AqTree
{
    std::uint64_t rects = 0;   ///< rectangles evaluated
    double sum = 0;            ///< the leaves' contributions
};

class AqApp : public App
{
  public:
    /** The most rectangles a refinement tree may hold: the host walks
     *  all of them before the run, so the parse refuses more. Full
     *  refinement to depth 9 walks 349,525; to depth 10, 1,398,101. */
    static constexpr std::uint64_t maxRects = std::uint64_t{1} << 20;

    /** The deepest rectangle a task word holds (24-bit ix and iy). */
    static constexpr int maxDepthBound = 24;

    /** Walk @p config's refinement tree, stopping once it passes
     *  maxRects (then rects == maxRects + 1). */
    static AqTree walkTree(const AqConfig &config);

    /** @p tree is walkTree(@p config), walked within maxRects. */
    AqApp(const AqConfig &config, const AqTree &tree);
    explicit AqApp(const AqConfig &config)
        : AqApp(config, walkTree(config))
    {}

    const char *name() const override { return "AQ"; }
    void setup(Machine &m) override;
    Task<void> thread(Mem &m, int tid) override;
    Task<void> sequential(Mem &m) override;
    bool verify(Machine &m) override;

    double exactIntegral() const { return 40.96; }
    std::uint64_t expectedTasks() const { return _expectedTasks; }

  private:
    // Task word: depth [0..7], ix [8..31], iy [32..55].
    static Word
    packRect(int depth, unsigned ix, unsigned iy)
    {
        return static_cast<Word>(depth) |
               (static_cast<Word>(ix) << 8) |
               (static_cast<Word>(iy) << 32);
    }

    static double f(double x, double y);

    /** Evaluate one rectangle; true if it must be subdivided. */
    static bool evalRect(const AqConfig &config, int depth, unsigned ix,
                         unsigned iy, double &contribution);

    AqConfig cfg;
    std::uint64_t _expectedTasks = 0;
    double _expectedSum = 0;

    /**
     * Initial work distribution: the top of the refinement tree is
     * pre-split breadth-first so all nodes have work immediately
     * (leaf rectangles encountered during the split stay in the
     * frontier so their contributions are still accumulated).
     */
    std::vector<Word> frontier;

    StealScheduler sched;
    SpinLock sumLock;
    Addr sumAddr = 0;
};

} // namespace swex

#endif // SWEX_APPS_AQ_HH
