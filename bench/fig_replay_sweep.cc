/**
 * @file
 * Throughput benchmark for record/replay on a Figure-4-shaped sweep:
 * WORKER rows at several working-set sizes on 64 nodes, each row a
 * sequential reference plus the seven pointer-axis protocol cells.
 *
 * Two legs over the identical spec grid:
 *
 *  - before: every cell executes directly (Runner::runAll);
 *  - after: one cold Runner::runAllReplay into a fresh trace
 *    directory — each row's sequential reference and first protocol
 *    cell record, every other cell replays that recording through
 *    the full simulated machine.
 *
 * The figure of merit is aggregate sim_cycles_per_sec: total
 * simulated cycles over the leg's wall time, measured by one steady
 * clock around the whole call, so trace save and load, verification
 * and stats collection all count. Per row, the bench also reports the
 * summed machine run time of its cells (RunRecord::hostWallSeconds),
 * which isolates the simulation itself from those costs. Replay must
 * stay bit-exact: the bench fails if any cell's cycle count or memory
 * image differs between the legs.
 *
 * Emits per-row and before/after entries (including peak_rss_kb)
 * into BENCH_FIGS.json.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "bench_support.hh"
#include "core/spectrum.hh"
#include "exp/runner.hh"

using namespace swex;
using namespace swex::bench;

namespace
{

constexpr int nodes = 64;

struct Row
{
    const char *label;
    AppParams params;
};

const Row rows[] = {
    {"W16", {{"wss", "16"}, {"iterations", "10"}}},
    {"W32", {{"wss", "32"}, {"iterations", "10"}}},
    {"W48", {{"wss", "48"}, {"iterations", "10"}}},
};

std::vector<ExperimentSpec>
sweepSpecs()
{
    std::vector<ExperimentSpec> specs;
    for (const Row &row : rows) {
        ExperimentSpec base{.id = std::string("fig_replay/") +
                                  row.label,
                            .app = "worker",
                            .params = row.params,
                            .nodes = nodes,
                            .victimEntries = 6};
        ExperimentSpec seq = base;
        seq.id += "/seq";
        seq.sequential = true;
        specs.push_back(std::move(seq));
        for (const auto &pt : pointerAxis()) {
            ExperimentSpec spec = base;
            spec.id += "/h" + pt.label;
            spec.protocol = pt.protocol;
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

struct Leg
{
    std::vector<RunRecord *> recs;
    double cycles = 0;
    double wall = 0;   ///< steady_clock around the whole call

    double
    perSec() const
    {
        return wall > 0 ? cycles / wall : 0;
    }
};

template <typename Sweep>
Leg
timedLeg(Sweep sweep)
{
    Leg leg;
    auto t0 = std::chrono::steady_clock::now();
    leg.recs = sweep();
    leg.wall = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    for (const RunRecord *r : leg.recs)
        leg.cycles += static_cast<double>(r->simCycles);
    return leg;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    setQuiet(true);

    const unsigned jobs =
        parseHarnessArgs("fig_replay_sweep", argc, argv).jobs;

    char dir_template[] = "/tmp/swex-replay-bench-XXXXXX";
    char *trace_dir = mkdtemp(dir_template);
    if (trace_dir == nullptr) {
        std::fprintf(stderr, "fig_replay_sweep: cannot create trace "
                             "scratch directory\n");
        return 1;
    }

    std::vector<ExperimentSpec> specs = sweepSpecs();

    // Before: the conventional sweep, every cell simulated directly.
    Runner direct_runner;
    Leg before = timedLeg([&] { return direct_runner.runAll(specs, jobs); });

    // After: the same grid, recording each kernel once into the empty
    // trace directory and replaying every other cell from it.
    Runner replay_runner;
    Leg after = timedLeg([&] {
        return replay_runner.runAllReplay(specs, jobs, trace_dir);
    });
    const std::vector<RunRecord *> &direct = before.recs;
    const std::vector<RunRecord *> &replay = after.recs;

    // Replay earns its keep only if it is exact: any divergence in
    // cycle count or memory image is a bench failure, not a footnote.
    bool exact = true;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (replay[i]->execMode != "record" &&
            replay[i]->execMode != "replay") {
            std::fprintf(stderr, "FAIL: %s ran outside record/replay "
                                 "(mode %s)\n",
                         specs[i].id.c_str(),
                         replay[i]->execMode.c_str());
            exact = false;
        }
        if (direct[i]->simCycles != replay[i]->simCycles ||
            direct[i]->imageHash != replay[i]->imageHash) {
            std::fprintf(
                stderr,
                "FAIL: %s diverged: direct %llu cycles image %016llx, "
                "replay %llu cycles image %016llx\n",
                specs[i].id.c_str(),
                static_cast<unsigned long long>(direct[i]->simCycles),
                static_cast<unsigned long long>(direct[i]->imageHash),
                static_cast<unsigned long long>(replay[i]->simCycles),
                static_cast<unsigned long long>(replay[i]->imageHash));
            exact = false;
        }
    }

    std::printf("Record/replay on a Figure-4-shaped WORKER sweep "
                "(%d nodes, %zu cells)\n", nodes, specs.size());
    rule(76);
    std::printf("%-18s %14s %12s %12s %9s\n", "row (machine run)",
                "sim cycles", "direct s", "replay s", "speedup");
    rule(76);
    std::size_t i = 0;
    JsonTrajectory traj;
    for (const Row &row : rows) {
        double cycles = 0, d_run = 0, r_run = 0;
        for (std::size_t k = 0; k < 1 + pointerAxis().size(); ++k) {
            cycles += static_cast<double>(direct[i]->simCycles);
            d_run += direct[i]->hostWallSeconds;
            r_run += replay[i]->hostWallSeconds;
            ++i;
        }
        double speedup = r_run > 0 ? d_run / r_run : 0;
        std::printf("%-18s %14.0f %12.3f %12.3f %8.1fx\n", row.label,
                    cycles, d_run, r_run, speedup);
        traj.record(std::string("fig_replay/") + row.label,
                    {{"cycles", cycles},
                     {"direct_run_s", d_run},
                     {"replay_run_s", r_run},
                     {"run_speedup", speedup}});
    }
    rule(76);

    double gain = before.perSec() > 0
                      ? after.perSec() / before.perSec()
                      : 0;
    std::printf("whole sweep: direct %.3f s, record+replay %.3f s; "
                "aggregate sim_cycles_per_sec %.3g vs %.3g (%.2fx)\n",
                before.wall, after.wall, before.perSec(),
                after.perSec(), gain);
    std::printf("replay is %s\n",
                exact ? "bit-identical to direct execution"
                      : "NOT bit-identical -- FAILED");

    traj.record("fig_replay_sweep/before",
                {{"sim_cycles", before.cycles},
                 {"wall_s", before.wall},
                 {"sim_cycles_per_sec", before.perSec()}});
    traj.record("fig_replay_sweep/after",
                {{"sim_cycles", after.cycles},
                 {"wall_s", after.wall},
                 {"sim_cycles_per_sec", after.perSec()},
                 {"aggregate_speedup", gain},
                 {"peak_rss_kb", static_cast<double>(peakRssKb())}});
    if (!traj.updateFile("BENCH_FIGS.json"))
        std::fprintf(stderr, "warning: could not write bench JSON\n");
    if (!direct_runner.emitRecords() || !replay_runner.emitRecords())
        std::fprintf(stderr, "warning: fig_replay_sweep run records "
                             "were dropped\n");
    return exact ? 0 : 1;
}
