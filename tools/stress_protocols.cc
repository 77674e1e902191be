/**
 * @file
 * stress_protocols: seeded interleaving stressor for the protocol
 * spectrum. For every protocol point and every seed in a range, runs a
 * workload on a jittered mesh (randomized per-message delivery delays)
 * with the coherence invariant auditor attached, and checks:
 *
 *  - the run completes and the workload's own verification passes,
 *  - machine invariants hold and the auditor reports zero violations,
 *  - for interleaving-independent workloads (WORKER), the final
 *    memory image is bit-identical to a quiet full-map reference run.
 *
 * Every cell is one ExperimentSpec executed by Runner::execute, the
 * loop behind every bench, swex_cli and the server, and judged from
 * the record it returns; --cache and --replay are that runner's
 * result cache and trace tier.
 *
 * On failure it prints the protocol, app, and seed, every recorded
 * violation, the tail of the message trace, and a swex_cli command
 * line that replays the failing configuration, then exits non-zero.
 * Those details come from one re-run of the failing cell on a live
 * machine, which only reports: the records decide.
 *
 * The (app x protocol x seed) grid is embarrassingly parallel: every
 * run is one thread-confined Machine. --jobs N executes the grid on a
 * host thread pool; results, per-pair summaries, and failure
 * diagnostics are buffered per run and printed in grid order after
 * the sweep drains, so the output (and the final digest of every
 * run's cycle count and memory image) is identical at any --jobs.
 *
 * The ctest registration runs a small seed count; the acceptance
 * sweep is `stress_protocols --app worker --seeds 200 --jobs 8`.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/registry.hh"
#include "audit/auditor.hh"
#include "base/json.hh"
#include "base/logging.hh"
#include "core/spectrum.hh"
#include "exp/cache/result_cache.hh"
#include "exp/pool.hh"
#include "exp/runner.hh"
#include "exp/spec_codec.hh"
#include "machine/machine.hh"

using namespace swex;

namespace
{

struct Options
{
    int seeds = 5;
    std::uint64_t startSeed = 1;
    int nodes = 16;
    Cycles jitterMax = 37;
    unsigned jobs = 1;
    bool replay = false;       ///< record, replay, digest the replay
    std::string cacheDir;      ///< result cache; "" = every cell runs
    std::string family = "directory";   ///< directory|snoop|all
    std::string onlyApp;       ///< empty = all stress apps
    std::string onlyProtocol;  ///< empty = full grid

    // Adversarial fault tier (all zero = jitter-only stressing).
    unsigned drop = 0;         ///< per-mille drop rate
    unsigned dup = 0;          ///< per-mille duplication rate
    unsigned blackout = 0;     ///< per-mille blackout rate
    Tick deadline = 0;         ///< per-run cycle budget (0 = none)
};

struct StressApp
{
    std::string name;
    AppParams params;
    bool imageStable;   ///< final memory independent of interleaving
};

/** The workloads the directory stressor sweeps. WORKER computes the
 *  same final memory under any interleaving; TSP's shared frontier
 *  makes its heap layout timing-dependent, so only its own
 *  verification and the auditor apply there. */
std::vector<StressApp>
stressApps()
{
    return {
        {"worker", {{"wss", "4"}, {"iterations", "2"}}, true},
        {"tsp", {{"cities", "6"}, {"frontier", "8"}}, false},
    };
}

/** The snooping-grid workloads: the sharing-pattern microbenchmarks.
 *  Seeds perturb their per-step compute through the `jitter` app
 *  parameter (the bus machine has no network to jitter), so every
 *  seed is a distinct deterministic interleaving. */
std::vector<StressApp>
snoopStressApps()
{
    return {
        {"falseshare", {{"iterations", "8"}}, false},
        {"padded", {{"iterations", "8"}}, false},
        {"hotline", {{"iterations", "8"}}, false},
    };
}

/** One cell of the protocol axis: a directory spectrum point or a
 *  (snooping protocol, bus arbitration) combination. */
struct GridPoint
{
    std::string label;          ///< e.g. "H5" or "MESI/fifo"
    bool snoop = false;
    ProtocolConfig dir;         ///< directory points only
    SnoopProtocol sp = SnoopProtocol::Mesi;
    BusArbitration arb = BusArbitration::Fifo;
};

std::vector<GridPoint>
directoryPoints()
{
    std::vector<GridPoint> out;
    for (const auto &pt : protocolSpectrum())
        out.push_back({pt.label, false, pt.protocol,
                       SnoopProtocol::Mesi, BusArbitration::Fifo});
    return out;
}

std::vector<GridPoint>
snoopPoints()
{
    std::vector<GridPoint> out;
    for (SnoopProtocol sp : {SnoopProtocol::Mesi, SnoopProtocol::Moesi,
                             SnoopProtocol::Mesif,
                             SnoopProtocol::Dragon}) {
        for (BusArbitration arb :
             {BusArbitration::Fifo, BusArbitration::RoundRobin}) {
            out.push_back({strfmt("%s/%s", snoopProtocolName(sp),
                                  busArbitrationName(arb)),
                           true, ProtocolConfig::fullMap(), sp, arb});
        }
    }
    return out;
}

/** A malformed invocation: say why and exit 2 before anything runs. */
[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "stress_protocols: %s\n", msg.c_str());
    std::exit(2);
}

/** @p value as an integer in [@p lo, @p hi], digits only, or exit 2. */
std::uint64_t
parseCount(const std::string &opt, const std::string &value,
           std::uint64_t lo, std::uint64_t hi)
{
    std::uint64_t n = 0;
    if (!json::parseU64(value, n) || n < lo || n > hi)
        usageError("bad value '" + value + "' for " + opt);
    return n;
}

/**
 * The spec of one grid cell: what Runner::execute runs, and so also
 * its result-cache key. A warm cell's stored record feeds the
 * summaries and the grid digest exactly as a fresh run's would, so
 * warm, cold, and cache-off sweeps print the same digest bit for bit.
 * With @p adversarial false it is the quiet reference run: no jitter,
 * faults, deadline or app jitter.
 */
ExperimentSpec
cellSpec(const StressApp &sa, const GridPoint &pt, const Options &opt,
         std::uint64_t seed, bool adversarial = true)
{
    ExperimentSpec spec;
    spec.id = strfmt("stress/%s/%s/s%llu", sa.name.c_str(),
                     pt.label.c_str(),
                     static_cast<unsigned long long>(seed));
    spec.app = sa.name;
    spec.params = sa.params;
    spec.nodes = opt.nodes;
    spec.victimEntries = 6;
    spec.audit = true;
    if (pt.snoop) {
        // The bus machine has no network: seeds perturb the app's own
        // compute via the `jitter` parameter instead of delivery
        // delays.
        spec.machineModel = MachineModel::Snoop;
        spec.snoopProtocol = pt.sp;
        spec.busArbitration = pt.arb;
        if (adversarial)
            spec.params["jitter"] = std::to_string(seed);
    } else {
        spec.protocol = pt.dir;
        spec.jitterSeed = seed;
        if (adversarial) {
            spec.jitterMax = opt.jitterMax;
            spec.faultDropPerMille = opt.drop;
            spec.faultDupPerMille = opt.dup;
            spec.faultBlackoutPerMille = opt.blackout;
            spec.faultSeed = seed;   // one seed replays the whole run
            spec.deadline = opt.deadline;
        }
    }
    return spec;
}

/** What the sweep keeps of one cell: its digest pair and, for a
 *  failing cell, the FAIL report. */
struct Cell
{
    Tick cycles = 0;
    std::uint64_t image = 0;
    std::string report;   ///< empty when the cell passed
};

/** Why record @p r fails the stress checks, appended to @p reasons. */
void
judge(const RunRecord &r, const std::uint64_t *expect_image,
      std::vector<std::string> &reasons)
{
    if (r.failed()) {
        reasons.push_back(strfmt(
            "%s after %llu cycles; last forward progress at tick %llu",
            r.status == "deadline" ? "deadline exceeded" : "deadlocked",
            static_cast<unsigned long long>(r.simCycles),
            static_cast<unsigned long long>(r.lastProgress)));
    } else if (!r.verified) {
        reasons.push_back("application verification failed");
    }
    if (r.auditViolations > 0) {
        reasons.push_back(strfmt(
            "%llu coherence invariant violations",
            static_cast<unsigned long long>(r.auditViolations)));
    }
    if (!r.failed() && expect_image && r.imageHash != *expect_image) {
        reasons.push_back(strfmt(
            "final memory image %016llx differs from the quiet "
            "full-map reference %016llx",
            static_cast<unsigned long long>(r.imageHash),
            static_cast<unsigned long long>(*expect_image)));
    }
}

/**
 * The FAIL report of @p spec, the cell labelled @p label at @p seed:
 * @p reasons, then what only a live machine shows. The cell runs once
 * more, directly and with the message trace on; the re-run only
 * reports, it decides nothing.
 */
std::string
failureReport(const ExperimentSpec &spec, const std::string &label,
              std::uint64_t seed, const std::vector<std::string> &reasons)
{
    std::ostringstream os;
    os << strfmt("\nFAIL: app=%s protocol=%s nodes=%d jitter=%llu "
                 "faults=%u,%u,%u seed=%llu\n",
                 spec.app.c_str(), label.c_str(), spec.nodes,
                 static_cast<unsigned long long>(spec.jitterMax),
                 spec.faultDropPerMille, spec.faultDupPerMille,
                 spec.faultBlackoutPerMille,
                 static_cast<unsigned long long>(seed));
    for (const std::string &f : reasons)
        os << "  " << f << "\n";

    MachineConfig mc = spec.machine();
    mc.net.traceDepth = 64;
    auto app = AppRegistry::instance().make(spec.app, spec.params,
                                            spec.nodes);
    Machine m(mc);
    CoherenceAuditor auditor(CoherenceAuditor::Mode::Collect);
    m.attachAuditor(&auditor);
    app->runParallel(m);
    for (const AuditViolation &v : auditor.violations())
        os << "  audit: " << v.describe() << "\n";
    if (m.runStatus() != Machine::RunStatus::Completed) {
        std::string stalls = m.backend->stallSummary();
        if (!stalls.empty())
            os << "stalled transactions:\n" << stalls;
    }
    if (const DeliveryLayer *d = m.network.delivery()) {
        os << strfmt("delivery: sent=%.0f delivered=%.0f "
                     "drops=%.0f dups=%.0f retransmits=%.0f "
                     "max attempts=%u\n",
                     d->sent.value(), d->delivered.value(),
                     d->dropsInjected.value(), d->dupsInjected.value(),
                     d->retransmits.value(), d->maxAttempts());
    }
    os << "last messages delivered:\n";
    m.network.dumpTrace(os);
    os << "replay: " << codec::toCommandLine(spec) << "\n";
    m.attachAuditor(nullptr);
    return os.str();
}

/**
 * Execute @p spec and judge its record. Runs on a worker thread: the
 * FAIL report is buffered into the cell, never printed here, so
 * concurrent runs cannot interleave their reports. With a
 * @p trace_dir the cell runs as a Record spec and, if that completes
 * (a failed run saves no trace), again as a Replay; both records are
 * judged and the replay's numbers feed the digest.
 */
Cell
runCell(const Runner &runner, const ExperimentSpec &spec,
        const std::string &label, std::uint64_t seed,
        const std::uint64_t *expect_image, const std::string &trace_dir)
{
    ExperimentSpec run = spec;
    if (!trace_dir.empty()) {
        run.execMode = ExecutionMode::Record;
        run.traceDir = trace_dir;
    }
    std::vector<std::string> reasons;
    const RunRecord rec = runner.execute(run);
    judge(rec, expect_image, reasons);
    Cell c{rec.simCycles, rec.imageHash, ""};

    if (!trace_dir.empty() && !rec.failed()) {
        // Verified means the recorded image and, for this exact-config
        // trace, the recorded cycle count.
        run.execMode = ExecutionMode::Replay;
        const RunRecord rep = runner.execute(run);
        if (rep.failed() || !rep.verified) {
            reasons.push_back(strfmt(
                "replay diverged from direct execution: cycles "
                "%llu vs %llu, image %016llx vs %016llx",
                static_cast<unsigned long long>(rep.simCycles),
                static_cast<unsigned long long>(rec.simCycles),
                static_cast<unsigned long long>(rep.imageHash),
                static_cast<unsigned long long>(rec.imageHash)));
        }
        if (rep.auditViolations > 0) {
            reasons.push_back(strfmt(
                "%llu coherence invariant violations in the replay",
                static_cast<unsigned long long>(rep.auditViolations)));
        }
        c.cycles = rep.simCycles;
        c.image = rep.imageHash;
    }
    if (!reasons.empty())
        c.report = failureReport(spec, label, seed, reasons);
    return c;
}

/** Quiet full-map run: the reference memory image for this app. */
std::uint64_t
referenceImage(const Runner &runner, const StressApp &sa,
               const Options &opt)
{
    const GridPoint fullmap{"FULLMAP", false, ProtocolConfig::fullMap()};
    Cell c = runCell(runner,
                     cellSpec(sa, fullmap, opt, /*seed=*/0,
                              /*adversarial=*/false),
                     fullmap.label, /*seed=*/0, nullptr, "");
    if (!c.report.empty()) {
        std::fputs(c.report.c_str(), stderr);
        std::fprintf(stderr, "stress_protocols: reference run of %s "
                             "failed; aborting\n", sa.name.c_str());
        std::exit(1);
    }
    return c.image;
}

void
usage()
{
    std::printf(
        "stress_protocols -- seeded jitter sweep over the protocol "
        "spectrum\n\n"
        "  --seeds <n>       seeds per (app, protocol) pair "
        "(default 5)\n"
        "  --start-seed <s>  first seed (default 1)\n"
        "  --nodes <n>       machine size (default 16)\n"
        "  --jitter <c>      max extra delivery delay (default 37)\n"
        "  --jobs <n>        concurrent runs on host threads "
        "(default 1; output is identical at any value)\n"
        "  --replay          run each cell as a Record spec, then as a\n"
        "                    Replay of its trace, judge both, digest\n"
        "                    the replay: the grid digest must match a\n"
        "                    direct sweep bit for bit. Not with --cache\n"
        "  --cache <dir>     serve warm cells (quiet references too)\n"
        "                    from the result cache; cold cells run and\n"
        "                    store their records. The grid digest is\n"
        "                    identical warm, cold, or with the cache off\n"
        "  --family <f>      directory|snoop|all: which machine-model\n"
        "                    grid to sweep (default directory; snoop\n"
        "                    = 4 protocols x 2 bus disciplines over\n"
        "                    the sharing microbenchmarks)\n"
        "  --app <name>      restrict to one app (worker|tsp, or\n"
        "                    falseshare|padded|hotline with snoop)\n"
        "  --protocol <lbl>  restrict to one grid label "
        "(e.g. DIR1SW or MESI/fifo)\n"
        "  --drop <pm>       fault tier: per-mille wire drop rate\n"
        "  --dup <pm>        fault tier: per-mille duplication rate\n"
        "  --blackout <pm>   fault tier: per-mille blackout rate\n"
        "  --deadline <c>    per-run cycle budget; exceeding it is a\n"
        "                    structured failure, never a hang "
        "(default 20000000 when any fault rate is set)\n");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError(a + " needs a value");
            return argv[++i];
        };
        if (a == "--seeds")
            opt.seeds = static_cast<int>(
                parseCount(a, next(), 1, 1'000'000));
        else if (a == "--start-seed")
            opt.startSeed = parseCount(a, next(), 0, 1'000'000'000);
        else if (a == "--nodes")
            opt.nodes = static_cast<int>(
                parseCount(a, next(), 1, maxNodes));
        else if (a == "--jitter")
            opt.jitterMax = parseCount(a, next(), 0, 1 << 20);
        else if (a == "--jobs")
            opt.jobs = static_cast<unsigned>(
                parseCount(a, next(), 1, 256));
        else if (a == "--replay")
            opt.replay = true;
        else if (a == "--cache")
            opt.cacheDir = next();
        else if (a == "--family") {
            opt.family = next();
            if (opt.family != "directory" && opt.family != "snoop" &&
                opt.family != "all")
                usageError("bad value '" + opt.family + "' for " + a);
        }
        else if (a == "--app")
            opt.onlyApp = next();
        else if (a == "--protocol")
            opt.onlyProtocol = next();
        else if (a == "--drop")
            opt.drop = static_cast<unsigned>(
                parseCount(a, next(), 0, 1000));
        else if (a == "--dup")
            opt.dup = static_cast<unsigned>(
                parseCount(a, next(), 0, 1000));
        else if (a == "--blackout")
            opt.blackout = static_cast<unsigned>(
                parseCount(a, next(), 0, 1000));
        else if (a == "--deadline")
            opt.deadline = parseCount(a, next(), 1, 4'000'000'000);
        else {
            usage();
            return a == "--help" || a == "-h" ? 0 : 2;
        }
    }
    // A warm cell would be served from the cache instead of replayed.
    if (opt.replay && !opt.cacheDir.empty())
        usageError("--replay and --cache cannot be combined");

    // A faulty wire can livelock a run by design (every retransmission
    // re-dropped); the fault tier therefore always runs under a
    // deadline so the sweep finishes whatever the protocol does.
    if ((opt.drop != 0 || opt.dup != 0 || opt.blackout != 0) &&
        opt.deadline == 0)
        opt.deadline = 20'000'000;

    setQuiet(true);

    Runner runner(/*fail_fast=*/false);
    std::unique_ptr<cache::ResultCache> rcache;
    if (!opt.cacheDir.empty()) {
        rcache = std::make_unique<cache::ResultCache>(opt.cacheDir);
        runner.attachCache(rcache.get());
    }
    // Build the flat grid up front. The reference images are computed
    // serially first (one quiet run per image-stable app); every grid
    // cell then only reads them.
    struct Pair
    {
        std::size_t app;        ///< index into apps
        GridPoint pt;
        std::size_t firstJob;   ///< index of this pair's first seed
    };
    struct Job
    {
        std::size_t pair;
        std::uint64_t seed;
    };

    // Each family pairs its own workloads with its own protocol
    // axis; `all` concatenates the two grids. The pair order is the
    // digest order, so the directory prefix of an `all` sweep prints
    // the same per-pair summaries as a pure directory sweep.
    std::vector<StressApp> apps;
    std::vector<std::uint64_t> references;   ///< 0 = no image check
    std::vector<Pair> pairs;
    std::vector<Job> jobs;
    auto addFamily = [&](const std::vector<StressApp> &fam_apps,
                         const std::vector<GridPoint> &points) {
        for (const StressApp &sa : fam_apps) {
            if (!opt.onlyApp.empty() && sa.name != opt.onlyApp)
                continue;
            apps.push_back(sa);
            references.push_back(
                sa.imageStable ? referenceImage(runner, sa, opt) : 0);
            for (const GridPoint &pt : points) {
                if (!opt.onlyProtocol.empty() &&
                    pt.label != opt.onlyProtocol)
                    continue;
                pairs.push_back({apps.size() - 1, pt, jobs.size()});
                for (int s = 0; s < opt.seeds; ++s)
                    jobs.push_back({pairs.size() - 1,
                                    opt.startSeed +
                                        static_cast<std::uint64_t>(s)});
            }
        }
    };
    if (opt.family == "directory" || opt.family == "all")
        addFamily(stressApps(), directoryPoints());
    if (opt.family == "snoop" || opt.family == "all")
        addFamily(snoopStressApps(), snoopPoints());

    // --replay records into a scratch directory the sweep removes.
    std::string trace_dir;
    if (opt.replay) {
        trace_dir = (std::filesystem::temp_directory_path() /
                     "swex_stress_replay_XXXXXX").string();
        if (::mkdtemp(trace_dir.data()) == nullptr) {
            std::perror("stress_protocols: mkdtemp");
            return 1;
        }
    }

    auto t0 = std::chrono::steady_clock::now();
    std::vector<Cell> results(jobs.size());
    parallelFor(jobs.size(), opt.jobs, [&](std::size_t i) {
        const Job &j = jobs[i];
        const Pair &p = pairs[j.pair];
        const std::uint64_t *expect =
            apps[p.app].imageStable ? &references[p.app] : nullptr;
        results[i] = runCell(runner,
                             cellSpec(apps[p.app], p.pt, opt, j.seed),
                             p.pt.label, j.seed, expect, trace_dir);
    });
    double wall = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    if (!trace_dir.empty())
        std::filesystem::remove_all(trace_dir);

    // Everything below replays the grid in order: diagnostics,
    // summaries, and the digest come out identical at any --jobs.
    int runs = static_cast<int>(jobs.size());
    int failed = 0;
    std::uint64_t digest = 1469598103934665603ull;   // FNV offset
    for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
        const Pair &p = pairs[pi];
        std::size_t end = pi + 1 < pairs.size()
                              ? pairs[pi + 1].firstJob
                              : jobs.size();
        int pass = 0, total = 0;
        for (std::size_t i = p.firstJob; i < end; ++i) {
            const Cell &r = results[i];
            ++total;
            if (r.report.empty()) {
                ++pass;
            } else {
                ++failed;
                std::fputs(r.report.c_str(), stderr);
            }
            digest = (digest ^ static_cast<std::uint64_t>(r.cycles)) *
                     1099511628211ull;
            digest = (digest ^ r.image) * 1099511628211ull;
        }
        std::printf("%-8s %-8s %4d/%d seeds ok\n",
                    apps[p.app].name.c_str(), p.pt.label.c_str(),
                    pass, total);
        std::fflush(stdout);
    }

    std::printf("grid digest %016llx (%d runs, --jobs %u, %.2fs)\n",
                static_cast<unsigned long long>(digest), runs,
                opt.jobs, wall);
    if (rcache) {
        cache::ResultCache::Counters c = rcache->counters();
        std::printf("cache: %llu hits, %llu misses, %llu stores "
                    "(%llu corrupt, %llu stale, %llu evicted)\n",
                    static_cast<unsigned long long>(c.hits),
                    static_cast<unsigned long long>(c.misses),
                    static_cast<unsigned long long>(c.stores),
                    static_cast<unsigned long long>(c.corrupt),
                    static_cast<unsigned long long>(c.stale),
                    static_cast<unsigned long long>(c.evictions));
    }
    if (failed > 0) {
        std::fprintf(stderr,
                     "stress_protocols: %d of %d runs FAILED\n",
                     failed, runs);
        return 1;
    }
    std::printf("stress_protocols: %d runs, all passed\n", runs);
    return 0;
}
