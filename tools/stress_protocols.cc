/**
 * @file
 * stress_protocols: seeded interleaving stressor for the protocol
 * spectrum. For every protocol point and every seed in a range, runs a
 * workload on a jittered mesh (randomized per-message delivery delays)
 * with the coherence invariant auditor attached, and checks:
 *
 *  - the workload's own verification passes,
 *  - machine invariants hold and the auditor reports zero violations,
 *  - for interleaving-independent workloads (WORKER), the final
 *    memory image is bit-identical to a quiet full-map reference run.
 *
 * On failure it prints the protocol, app, and seed, every recorded
 * violation, the tail of the message trace, and a swex_cli command
 * line that replays the failing configuration, then exits non-zero.
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

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/registry.hh"
#include "audit/auditor.hh"
#include "base/logging.hh"
#include "core/spectrum.hh"
#include "exp/cache/result_cache.hh"
#include "exp/pool.hh"
#include "exp/spec_codec.hh"
#include "machine/machine.hh"
#include "trace/recorder.hh"
#include "trace/replay.hh"
#include "trace/trace_format.hh"

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
    std::uint64_t cacheMaxBytes = 0;     ///< LRU budget (0=unbounded)
    std::uint64_t cacheMaxEntries = 0;   ///< LRU budget (0=unbounded)
    std::string family = "directory";   ///< directory|snoop|all
    std::string onlyApp;       ///< empty = all stress apps
    std::string onlyProtocol;  ///< empty = full grid

    // Adversarial fault tier (all zero = jitter-only stressing).
    unsigned drop = 0;         ///< per-mille drop rate
    unsigned dup = 0;          ///< per-mille duplication rate
    unsigned blackout = 0;     ///< per-mille blackout rate
    Tick deadline = 0;         ///< per-run cycle budget (0 = none)

    bool
    faultsOn() const
    {
        return drop != 0 || dup != 0 || blackout != 0;
    }
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

[[noreturn]] void
badValue(const std::string &opt, const std::string &value)
{
    std::fprintf(stderr,
                 "stress_protocols: bad value '%s' for %s\n",
                 value.c_str(), opt.c_str());
    std::exit(2);
}

long
parseLong(const std::string &opt, const std::string &value, long lo,
          long hi)
{
    errno = 0;
    char *end = nullptr;
    long v = std::strtol(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
        v < lo || v > hi)
        badValue(opt, value);
    return v;
}

struct RunResult
{
    bool ok = true;
    Tick cycles = 0;
    std::uint64_t image = 0;
    std::string diagnostics;   ///< failure report; empty when ok
};

/**
 * The spec of one grid cell: what stressRun() runs, and the
 * result-cache key for --cache. A warm cell's stored (cycles, image)
 * pair feeds the summaries and the grid digest exactly as a fresh
 * run's would, so warm, cold, and cache-off sweeps print the same
 * digest bit for bit. With @p adversarial false it is the quiet
 * reference run: no jitter, faults, deadline or app jitter.
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

/** Run @p spec, the cell labelled @p label at @p seed, with the
 *  auditor attached. Runs on a worker thread: all diagnostics are
 *  buffered into the result, never printed here, so concurrent runs
 *  cannot interleave their reports. @p replay also records the op
 *  streams and requires a replay of them to match. */
RunResult
stressRun(const ExperimentSpec &spec, const std::string &label,
          std::uint64_t seed, bool replay,
          const std::uint64_t *expect_image)
{
    MachineConfig mc = spec.machine();
    mc.net.traceDepth = 64;
    // --replay: capture the op streams during the direct run so the
    // cell can be re-executed from the trace below.
    if (replay)
        mc.executionMode = ExecutionMode::Record;

    auto app = AppRegistry::instance().make(spec.app, spec.params,
                                            spec.nodes);
    Machine m(mc);
    CoherenceAuditor auditor(CoherenceAuditor::Mode::Collect);
    m.attachAuditor(&auditor);

    RunResult r;
    r.cycles = app->runParallel(m);
    const bool completed =
        m.runStatus() == Machine::RunStatus::Completed;
    bool verified = false;
    if (completed) {
        // Abandoned runs hold transient directory state; verification
        // and the panic-on-violation invariant checks only make sense
        // at quiescence.
        verified = app->verify(m);
        m.checkInvariants();
    }
    r.image = m.imageHash();

    std::vector<std::string> failures;
    if (!completed) {
        failures.push_back(strfmt(
            "%s after %llu cycles; last forward progress at tick %llu",
            m.runStatus() == Machine::RunStatus::DeadlineExceeded
                ? "deadline exceeded"
                : "deadlocked",
            static_cast<unsigned long long>(r.cycles),
            static_cast<unsigned long long>(m.lastProgressTick())));
    } else if (!verified) {
        failures.push_back("application verification failed");
    }
    if (auditor.violationCount() > 0) {
        failures.push_back(strfmt(
            "%llu coherence invariant violations",
            static_cast<unsigned long long>(auditor.violationCount())));
    }
    if (completed && expect_image && r.image != *expect_image) {
        failures.push_back(strfmt(
            "final memory image %016llx differs from the quiet "
            "full-map reference %016llx",
            static_cast<unsigned long long>(r.image),
            static_cast<unsigned long long>(*expect_image)));
    }

    // --replay: re-execute the cell from the recorded op streams on a
    // fresh machine under the identical (config-bound) configuration
    // and require bit-identity; the digest is then computed from the
    // replay machine's numbers, so `--replay` and direct sweeps must
    // print the same grid digest. Cells that blew their deadline have
    // truncated streams and cannot replay; their direct numbers feed
    // the digest unchanged.
    if (replay && completed) {
        const TraceRecorder *rec = m.recorder();
        trace::Trace t;
        t.meta.appNodes = static_cast<std::uint32_t>(spec.nodes);
        t.meta.numThreads =
            static_cast<std::uint32_t>(rec->numThreads());
        t.meta.configFingerprint = trace::configFingerprint(mc);
        t.meta.recordedCycles = r.cycles;
        t.meta.recordedImageHash = r.image;
        t.meta.seed = mc.seed;
        t.meta.app = spec.app;
        t.meta.params = trace::canonicalAppParams(spec.params);
        t.meta.protocol = mc.protocol.name();
        for (int i = 0; i < rec->numThreads(); ++i)
            t.streams.push_back(rec->stream(i));
        trace::ReplayProgram prog(std::move(t));

        MachineConfig rmc = mc;
        rmc.executionMode = ExecutionMode::Replay;
        auto rapp = AppRegistry::instance().make(spec.app, spec.params,
                                                 spec.nodes);
        Machine rm(rmc);
        rapp->setup(rm);
        Tick rcycles = rm.runReplay(prog.sources());
        std::uint64_t rimage = rm.imageHash();
        if (rm.runStatus() != Machine::RunStatus::Completed ||
            rcycles != r.cycles || rimage != r.image) {
            failures.push_back(strfmt(
                "replay diverged from direct execution: cycles "
                "%llu vs %llu, image %016llx vs %016llx",
                static_cast<unsigned long long>(rcycles),
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(rimage),
                static_cast<unsigned long long>(r.image)));
        }
        r.cycles = rcycles;
        r.image = rimage;
    }

    if (!failures.empty()) {
        r.ok = false;
        std::ostringstream os;
        os << strfmt("\nFAIL: app=%s protocol=%s nodes=%d jitter=%llu "
                     "faults=%u,%u,%u seed=%llu\n",
                     spec.app.c_str(), label.c_str(), spec.nodes,
                     static_cast<unsigned long long>(spec.jitterMax),
                     spec.faultDropPerMille, spec.faultDupPerMille,
                     spec.faultBlackoutPerMille,
                     static_cast<unsigned long long>(seed));
        for (const std::string &f : failures)
            os << "  " << f << "\n";
        for (const AuditViolation &v : auditor.violations())
            os << "  audit: " << v.describe() << "\n";
        if (!completed) {
            std::string stalls = auditor.stallSummary();
            if (!stalls.empty())
                os << "stalled transactions:\n" << stalls;
        }
        if (const DeliveryLayer *d = m.network.delivery()) {
            os << strfmt("delivery: sent=%.0f delivered=%.0f "
                         "drops=%.0f dups=%.0f retransmits=%.0f "
                         "max attempts=%u\n",
                         d->sent.value(), d->delivered.value(),
                         d->dropsInjected.value(),
                         d->dupsInjected.value(),
                         d->retransmits.value(), d->maxAttempts());
        }
        os << "last messages delivered:\n";
        m.network.dumpTrace(os);
        os << "replay: " << codec::toCommandLine(spec) << "\n";
        r.diagnostics = os.str();
    }
    m.attachAuditor(nullptr);
    return r;
}

/** Quiet full-map run: the reference memory image for this app. */
std::uint64_t
referenceImage(const StressApp &sa, const Options &opt)
{
    const GridPoint fullmap{"FULLMAP", false, ProtocolConfig::fullMap()};
    RunResult r = stressRun(
        cellSpec(sa, fullmap, opt, /*seed=*/0, /*adversarial=*/false),
        fullmap.label, /*seed=*/0, /*replay=*/false, nullptr);
    if (!r.ok) {
        std::fputs(r.diagnostics.c_str(), stderr);
        std::fprintf(stderr, "stress_protocols: reference run of %s "
                             "failed; aborting\n", sa.name.c_str());
        std::exit(1);
    }
    return r.image;
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
        "  --replay          record each cell's op streams, replay "
        "them on a fresh machine, and digest the replay run; the "
        "grid digest must match a direct sweep bit for bit\n"
        "  --cache <dir>     content-addressed result cache: warm "
        "cells serve their stored (cycles, image) without running; "
        "cold cells run as usual and store back. The grid digest is "
        "identical warm, cold, or with the cache off\n"
        "  --cache-max-bytes <n>   bound the cache directory (0 =\n"
        "                    unbounded); stores evict LRU-by-mtime\n"
        "  --cache-max-entries <n> same bound, counted in entries\n"
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
                badValue(a, "<missing>");
            return argv[++i];
        };
        if (a == "--seeds")
            opt.seeds = static_cast<int>(
                parseLong(a, next(), 1, 1'000'000));
        else if (a == "--start-seed")
            opt.startSeed = static_cast<std::uint64_t>(
                parseLong(a, next(), 0, 1'000'000'000));
        else if (a == "--nodes")
            opt.nodes = static_cast<int>(
                parseLong(a, next(), 1, maxNodes));
        else if (a == "--jitter")
            opt.jitterMax = static_cast<Cycles>(
                parseLong(a, next(), 0, 1 << 20));
        else if (a == "--jobs")
            opt.jobs = static_cast<unsigned>(
                parseLong(a, next(), 1, 256));
        else if (a == "--replay")
            opt.replay = true;
        else if (a == "--cache")
            opt.cacheDir = next();
        else if (a == "--cache-max-bytes")
            opt.cacheMaxBytes = static_cast<std::uint64_t>(
                parseLong(a, next(), 0, 1'000'000'000'000l));
        else if (a == "--cache-max-entries")
            opt.cacheMaxEntries = static_cast<std::uint64_t>(
                parseLong(a, next(), 0, 1'000'000'000l));
        else if (a == "--family") {
            opt.family = next();
            if (opt.family != "directory" && opt.family != "snoop" &&
                opt.family != "all")
                badValue(a, opt.family);
        }
        else if (a == "--app")
            opt.onlyApp = next();
        else if (a == "--protocol")
            opt.onlyProtocol = next();
        else if (a == "--drop")
            opt.drop = static_cast<unsigned>(
                parseLong(a, next(), 0, 1000));
        else if (a == "--dup")
            opt.dup = static_cast<unsigned>(
                parseLong(a, next(), 0, 1000));
        else if (a == "--blackout")
            opt.blackout = static_cast<unsigned>(
                parseLong(a, next(), 0, 1000));
        else if (a == "--deadline")
            opt.deadline = static_cast<Tick>(
                parseLong(a, next(), 1, 4'000'000'000));
        else {
            usage();
            return a == "--help" || a == "-h" ? 0 : 2;
        }
    }

    // A faulty wire can livelock a run by design (every retransmission
    // re-dropped); the fault tier therefore always runs under a
    // deadline so the sweep finishes whatever the protocol does.
    if (opt.faultsOn() && opt.deadline == 0)
        opt.deadline = 20'000'000;

    setQuiet(true);

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
                sa.imageStable ? referenceImage(sa, opt) : 0);
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

    // --cache: grid cells become content-addressed. Only passing runs
    // are stored (a failure must re-run and re-diagnose every sweep),
    // so a hit is always a pass and carries the direct run's exact
    // (cycles, image) pair into the digest.
    std::unique_ptr<cache::ResultCache> rcache;
    if (!opt.cacheDir.empty())
        rcache = std::make_unique<cache::ResultCache>(
            opt.cacheDir, cache::CodeVersions::current(),
            cache::ResultCache::Budget{opt.cacheMaxBytes,
                                       opt.cacheMaxEntries});

    auto t0 = std::chrono::steady_clock::now();
    std::vector<RunResult> results(jobs.size());
    parallelFor(jobs.size(), opt.jobs, [&](std::size_t i) {
        const Job &j = jobs[i];
        const Pair &p = pairs[j.pair];
        const std::uint64_t *expect =
            apps[p.app].imageStable ? &references[p.app] : nullptr;
        const ExperimentSpec spec =
            cellSpec(apps[p.app], p.pt, opt, j.seed);
        if (rcache) {
            RunRecord rec;
            if (rcache->lookup(spec, rec)) {
                results[i].ok = true;
                results[i].cycles = rec.simCycles;
                results[i].image = rec.imageHash;
                return;
            }
        }
        results[i] = stressRun(spec, p.pt.label, j.seed, opt.replay,
                               expect);
        if (rcache && results[i].ok) {
            RunRecord rec;
            rec.id = spec.id;
            rec.app = spec.app;
            rec.protocol = p.pt.label;
            rec.machineModel = p.pt.snoop ? "snoop" : "directory";
            rec.nodes = opt.nodes;
            rec.verified = true;
            rec.simCycles = results[i].cycles;
            rec.imageHash = results[i].image;
            std::string err;
            if (!rcache->store(spec, rec, err))
                std::fprintf(stderr, "cache store %s: %s\n",
                             spec.id.c_str(), err.c_str());
        }
    });
    double wall = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();

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
            const RunResult &r = results[i];
            ++total;
            if (r.ok) {
                ++pass;
            } else {
                ++failed;
                std::fputs(r.diagnostics.c_str(), stderr);
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
