/**
 * @file
 * Throughput benchmark for the content-addressed result cache on a
 * Figure-4-shaped sweep: WORKER rows at several working-set sizes on
 * 64 nodes, each row a sequential reference plus the seven
 * pointer-axis protocol cells.
 *
 * Three legs over the identical spec grid:
 *
 *  - direct: no cache, every cell simulated (the baseline cost);
 *  - cold:   cache attached but empty — every cell simulates and
 *            stores, the first sweep's cost including store overhead;
 *  - warm:   the same grid again — every cell served from disk, the
 *            steady-state cost of a re-sweep after nothing changed.
 *
 * The figure of merit is aggregate throughput (total simulated cycles
 * over measured leg wall time; cached records carry the original
 * run's host clock, so legs are timed externally). The cache earns
 * its keep only if it is invisible in the results: the bench aborts
 * unless every cell's canonical record JSON is byte-identical across
 * all three legs.
 *
 * Emits direct/cold/warm entries (including the warm aggregate
 * speedup and peak_rss_kb) into BENCH_FIGS.json.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "bench_support.hh"
#include "core/spectrum.hh"
#include "exp/cache/result_cache.hh"
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
        ExperimentSpec base{.id = std::string("fig_cache/") +
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

std::string
canonicalJson(const RunRecord &r)
{
    std::ostringstream os;
    r.writeJson(os, /*canonical=*/true);
    return os.str();
}

struct Leg
{
    std::vector<RunRecord *> recs;
    double cycles = 0;
    double wall = 0;   ///< measured externally (steady_clock)

    double
    perSec() const
    {
        return wall > 0 ? cycles / wall : 0;
    }
};

Leg
runLeg(Runner &runner, const std::vector<ExperimentSpec> &specs,
       unsigned jobs)
{
    Leg leg;
    auto t0 = std::chrono::steady_clock::now();
    leg.recs = runner.runAll(specs, jobs);
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
        parseHarnessArgs("fig_cache_sweep", argc, argv).jobs;

    char dir_template[] = "/tmp/swex-cache-bench-XXXXXX";
    char *cache_dir = mkdtemp(dir_template);
    if (cache_dir == nullptr) {
        std::fprintf(stderr, "fig_cache_sweep: cannot create cache "
                             "scratch directory\n");
        return 1;
    }

    std::vector<ExperimentSpec> specs = sweepSpecs();

    // Baseline: no cache anywhere near the sweep.
    Runner direct_runner;
    Leg direct = runLeg(direct_runner, specs, jobs);

    // Cold: same grid, cache attached but empty. Every cell
    // simulates and stores; the delta against direct is the store
    // overhead a first sweep pays.
    cache::ResultCache rcache(cache_dir);
    Runner cold_runner;
    cold_runner.attachCache(&rcache);
    Leg cold = runLeg(cold_runner, specs, jobs);

    // Warm: the re-sweep. Every cell must come off disk.
    Runner warm_runner;
    warm_runner.attachCache(&rcache);
    Leg warm = runLeg(warm_runner, specs, jobs);

    cache::ResultCache::Counters counters = rcache.counters();
    bool exact = true;
    if (counters.hits != specs.size()) {
        std::fprintf(stderr,
                     "FAIL: warm leg took %llu cache hits, expected "
                     "%zu\n",
                     static_cast<unsigned long long>(counters.hits),
                     specs.size());
        exact = false;
    }
    // The cache's whole correctness contract: a served record is the
    // bytes a direct run emits, cell for cell.
    for (std::size_t i = 0; i < specs.size(); ++i) {
        std::string d = canonicalJson(*direct.recs[i]);
        if (canonicalJson(*cold.recs[i]) != d ||
            canonicalJson(*warm.recs[i]) != d) {
            std::fprintf(stderr, "FAIL: %s: cache-served record is "
                                 "not byte-identical to direct\n",
                         specs[i].id.c_str());
            exact = false;
        }
    }

    std::printf("Result cache on a Figure-4-shaped WORKER sweep "
                "(%d nodes, %zu cells)\n", nodes, specs.size());
    rule(72);
    std::printf("%-10s %16s %12s %14s\n", "leg", "sim cycles",
                "wall s", "cycles/s");
    rule(72);
    auto line = [](const char *label, const Leg &leg) {
        std::printf("%-10s %16.0f %12.4f %14.4g\n", label, leg.cycles,
                    leg.wall, leg.perSec());
    };
    line("direct", direct);
    line("cold", cold);
    line("warm", warm);
    rule(72);

    double gain = direct.perSec() > 0 ? warm.perSec() / direct.perSec()
                                      : 0;
    std::printf("warm re-sweep aggregate throughput: %.1fx direct "
                "(%llu stores, %llu hits)\n",
                gain,
                static_cast<unsigned long long>(counters.stores),
                static_cast<unsigned long long>(counters.hits));
    std::printf("cache-served records are %s\n",
                exact ? "byte-identical to direct execution"
                      : "NOT byte-identical -- FAILED");

    JsonTrajectory traj;
    traj.record("fig_cache_sweep/direct",
                {{"sim_cycles", direct.cycles},
                 {"wall_s", direct.wall},
                 {"sim_cycles_per_sec", direct.perSec()}});
    traj.record("fig_cache_sweep/cold",
                {{"sim_cycles", cold.cycles},
                 {"wall_s", cold.wall},
                 {"sim_cycles_per_sec", cold.perSec()},
                 {"stores", static_cast<double>(counters.stores)}});
    traj.record("fig_cache_sweep/warm",
                {{"sim_cycles", warm.cycles},
                 {"wall_s", warm.wall},
                 {"sim_cycles_per_sec", warm.perSec()},
                 {"aggregate_speedup", gain},
                 {"hits", static_cast<double>(counters.hits)},
                 {"peak_rss_kb", static_cast<double>(peakRssKb())}});
    if (!traj.updateFile("BENCH_FIGS.json"))
        std::fprintf(stderr, "warning: could not write bench JSON\n");
    if (!direct_runner.emitRecords() || !warm_runner.emitRecords())
        std::fprintf(stderr, "warning: fig_cache_sweep run records "
                             "were dropped\n");
    return exact ? 0 : 1;
}
