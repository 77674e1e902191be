/**
 * @file
 * Reproduces Figure 4: speedups of the six applications over their
 * sequential runs, on 64 nodes, across the pointer-cost axis
 * 0, 1, 2, 3, 4, 5, n (victim caching enabled, as in the paper).
 *
 * Expected shape: Dir_nH_5S_NB reaches 71-100% of full-map on every
 * application; one-pointer protocols reach 42-100%; the software-only
 * directory is lowest (down to ~11% on MP3D, ~70% on TSP and WATER).
 *
 * The whole figure is one spec grid (per app: the sequential
 * reference plus seven protocol points) handed to Runner::runAll, so
 * `fig4_speedups --jobs N` computes the rows concurrently while the
 * table, the trajectory, and the emitted records stay identical to a
 * serial run.
 */

#include <algorithm>
#include <cstdio>
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

/** One Figure 4 row: display name, registry name, parameters. */
struct Fig4Row
{
    const char *label;
    const char *app;
    AppParams params;
};

const Fig4Row rows[] = {
    {"TSP", "tsp", {}},
    {"AQ", "aq", {}},
    {"SMGRID", "smgrid", {{"fine", "65"}}},
    {"EVOLVE", "evolve", {}},
    {"MP3D", "mp3d", {}},
    {"WATER", "water", {}},
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    setQuiet(true);

    // Optional positional filters run only the named apps
    // (case-sensitive, e.g. `fig4_speedups TSP WATER`); --jobs N
    // spreads the grid over host threads.
    std::vector<std::string> labels;
    for (const Fig4Row &row : rows)
        labels.push_back(row.label);
    const HarnessArgs args =
        parseHarnessArgs("fig4_speedups", argc, argv, labels);
    const unsigned jobs = args.jobs;
    auto selected = [&](const char *name) {
        return args.rows.empty() ||
               std::find(args.rows.begin(), args.rows.end(), name) !=
                   args.rows.end();
    };

    // The grid, in document order: per row the sequential reference
    // first, then the seven pointer-axis points.
    std::vector<const Fig4Row *> active;
    std::vector<ExperimentSpec> specs;
    for (const Fig4Row &row : rows) {
        if (!selected(row.label))
            continue;
        active.push_back(&row);
        ExperimentSpec base{.id = std::string("fig4/") + row.label,
                            .app = row.app,
                            .params = row.params,
                            .nodes = nodes,
                            .victimEntries = 6};
        ExperimentSpec seq = base;
        seq.sequential = true;
        specs.push_back(std::move(seq));
        for (const auto &pt : pointerAxis()) {
            ExperimentSpec spec = base;
            spec.id += "/h" + pt.label;
            spec.protocol = pt.protocol;
            specs.push_back(std::move(spec));
        }
    }

    JsonTrajectory traj;
    Runner runner;
    std::vector<RunRecord *> recs = runner.runAll(specs, jobs);

    std::printf("Figure 4: application speedups over sequential, "
                "64 nodes, victim caching on\n");
    std::printf("Columns: hardware directory pointers "
                "(0 = software-only, n = full-map)\n");
    rule(86);
    std::printf("%-8s", "app");
    for (const auto &pt : pointerAxis())
        std::printf(" %8s", pt.label.c_str());
    std::printf(" %8s\n", "H5/FULL");
    rule(86);

    std::size_t i = 0;
    for (const Fig4Row *row : active) {
        Tick t_seq = recs[i++]->simCycles;
        std::printf("%-8s", row->label);
        double h5 = 0, full = 0;
        for (const auto &pt : pointerAxis()) {
            RunRecord &r = *recs[i++];
            r.seqCycles = static_cast<double>(t_seq);
            double speedup = static_cast<double>(t_seq) /
                             static_cast<double>(r.simCycles);
            r.speedup = speedup;
            if (pt.label == "5")
                h5 = speedup;
            if (pt.label == "n")
                full = speedup;
            std::printf(" %8.1f", speedup);
            traj.record(std::string("fig4/") + row->label + "/h" +
                            pt.label,
                        {{"cycles",
                          static_cast<double>(r.simCycles)},
                         {"speedup", speedup},
                         {"wall_s", r.hostWallSeconds},
                         {"events", r.hostEvents},
                         {"events_per_sec", r.eventsPerSec()},
                         {"sim_cycles_per_sec", r.simCyclesPerSec()}});
        }
        std::printf(" %7.0f%%\n", 100.0 * h5 / full);
        std::fflush(stdout);
    }
    rule(86);
    std::printf("Paper: H5 within 71-100%% of full-map on every "
                "application; H0 as low as 11%%\n(MP3D) and as high "
                "as ~70%% (TSP, WATER).\n");
    traj.record("fig4_speedups",
                {{"peak_rss_kb", static_cast<double>(peakRssKb())}});
    if (!traj.updateFile("BENCH_FIGS.json"))
        std::fprintf(stderr, "warning: could not write bench JSON\n");
    if (!runner.emitRecords())
        std::fprintf(stderr,
                     "warning: fig4_speedups run records were "
                     "dropped\n");
    return 0;
}
