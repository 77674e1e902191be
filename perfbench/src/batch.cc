/**
 * @file
 * The three batch workloads: closed-loop passes over a fixed spec grid,
 * each pass one Runner::runAll / runAllReplay call with jobs host
 * threads. The traced variant alternates an untraced pass with a pass
 * of step-by-step cells (cells.hh) and checks both agree cell by cell.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>
#include <sstream>

#include "apps/registry.hh"
#include "core/spectrum.hh"
#include "exp/pool.hh"
#include "exp/runner.hh"
#include "trace/trace_format.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace swex;

namespace
{

// ---- shared ---------------------------------------------------------

std::vector<double>
costsOf(const std::vector<ExperimentSpec> &specs)
{
    std::vector<double> costs;
    for (const ExperimentSpec &s : specs) {
        double w = AppRegistry::instance().contains(s.app)
                       ? AppRegistry::instance().entry(s.app).costWeight
                       : 1.0;
        costs.push_back(w * (s.sequential ? 1 : s.nodes));
    }
    return costs;
}

/** Whether to start another pass: smoke runs make exactly one. */
bool
keepGoing(const Options &opt, Clock::time_point start, std::uint64_t passes)
{
    if (passes == 0)
        return true;
    return !opt.smoke && secondsSince(start) < opt.seconds;
}

std::string
canonicalJson(const RunRecord &r)
{
    Span s("exp.record.write");
    std::ostringstream os;
    r.writeJson(os, /*canonical=*/true);
    return os.str();
}

/** Completed, verified by the app, and violation-free. */
bool
recordOk(const RunRecord &r, Outcome &o)
{
    if (r.failed())
        o.fail(r.id + ": run ended with status " + r.status);
    else if (!r.verified)
        o.fail(r.id + ": failed verification");
    else if (r.auditViolations != 0)
        o.fail(r.id + ": " + std::to_string(r.auditViolations) +
               " coherence violations");
    else
        return true;
    return false;
}

/** Time @p setup, only what the workload needs before its first pass,
 *  opt.setups times (once in smoke mode). A set-up of microseconds is
 *  repeated until the set-ups have taken 50 ms, at most 10000 times, so
 *  its median rests on enough samples to be steady. */
template <typename Fn>
void
timedSetups(const Options &opt, Outcome &o, Fn setup)
{
    const unsigned n = opt.smoke ? 1 : std::max(1u, opt.setups);
    double spent = 0;
    for (unsigned i = 0; i < n || (!opt.smoke && spent < 0.05 && i < 10000);
         ++i) {
        auto t0 = Clock::now();
        setup();
        const double s = secondsSince(t0);
        o.setupS.add(s);
        spent += s;
    }
}

/** Count one measured pass into the end-to-end totals. */
void
countPass(Outcome &o, double wall, const std::vector<RunRecord *> &recs,
          bool untraced_in_traced_run)
{
    o.wallS += wall;
    o.cells += static_cast<double>(recs.size());
    for (const RunRecord *r : recs)
        o.simCycles += static_cast<double>(r->simCycles);
    o.opMs.add(wall * 1e3);
    ++o.runs;
    if (untraced_in_traced_run)
        o.untracedPassS.add(wall);
}

/** One pass of step-by-step cells, longest first, like runAll. */
std::vector<CellOutcome>
decomposedPass(const std::vector<ExperimentSpec> &specs, unsigned jobs,
               Outcome &o)
{
    std::vector<CellOutcome> cells(specs.size());
    auto t0 = Clock::now();
    parallelFor(specs.size(), jobs, costsOf(specs), [&](std::size_t i) {
        cells[i] = runCellSteps(specs[i]);
    });
    double wall = secondsSince(t0);
    o.tracedPassS.add(wall);
    o.tracedWallS += wall;
    return cells;
}

/** Every decomposed cell must land where Runner::execute did. */
void
matchDecomposed(const std::vector<RunRecord *> &recs,
                const std::vector<CellOutcome> &cells, Outcome &o,
                CellSums &sums)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellOutcome &c = cells[i];
        const RunRecord &r = *recs[i];
        ++o.attempted;
        sums.add(c);
        if (!c.error.empty())
            o.fail(r.id + " (step by step): " + c.error);
        else if (c.simCycles != r.simCycles || c.image != r.imageHash ||
                 c.verified != r.verified)
            o.fail(r.id + ": step-by-step cell gave " +
                   std::to_string(c.simCycles) + " cycles, runner " +
                   std::to_string(r.simCycles));
    }
}

// ---- fig4_direct ----------------------------------------------------

constexpr int fig4Nodes = 64;

struct Fig4Row
{
    const char *label;
    const char *app;
    AppParams params;
};

const Fig4Row fig4Rows[] = {
    {"TSP", "tsp", {}},
    {"AQ", "aq", {}},
    {"SMGRID", "smgrid", {{"fine", "65"}}},
    {"EVOLVE", "evolve", {}},
    {"MP3D", "mp3d", {}},
    {"WATER", "water", {}},
};
constexpr std::size_t fig4Cols = 8;   // sequential + seven axis points
constexpr std::size_t fig4H5 = 6;     // column of pointer-axis "5"
constexpr std::size_t fig4Full = 7;   // column of pointer-axis "n"

/** Today's Figure 4 cycle counts (machine seed 12345), row by row:
 *  sequential, then pointers 0, 1, 2, 3, 4, 5, n. */
const Tick fig4Cycles[6][fig4Cols] = {
    {9704597, 1617661, 655984, 578231, 538764, 526832, 513683, 408540},
    {18148080, 7718758, 1195186, 1101533, 1021604, 996483, 928297, 657529},
    {9626108, 2023435, 1089363, 763778, 398227, 397151, 397026, 396313},
    {4722109, 473420, 237882, 187489, 168597, 155855, 148812, 114466},
    {1728980, 488737, 189484, 84425, 84573, 61805, 60935, 49495},
    {24225468, 863082, 626884, 489224, 487960, 479365, 476769, 400892},
};

/** FNV-1a over the grid's canonical records, one per line, in grid
 *  order. */
constexpr std::uint64_t fig4Digest = 0x0456e21c9d02b5d7ull;

std::vector<ExperimentSpec>
fig4Specs()
{
    std::vector<ExperimentSpec> specs;
    for (const Fig4Row &row : fig4Rows) {
        ExperimentSpec base;
        base.id = std::string("fig4/") + row.label;
        base.app = row.app;
        base.params = row.params;
        base.nodes = fig4Nodes;
        base.victimEntries = 6;
        ExperimentSpec seq = base;
        seq.sequential = true;
        specs.push_back(std::move(seq));
        for (const SpectrumPoint &pt : pointerAxis()) {
            ExperimentSpec s = base;
            s.id += "/h" + pt.label;
            s.protocol = pt.protocol;
            specs.push_back(std::move(s));
        }
    }
    return specs;
}

/** Geometric mean over the rows of speedup(H5)/speedup(full-map),
 *  which is cycles(full-map)/cycles(H5). */
double
h5FullRatio(const std::vector<Tick> &cycles)
{
    double log_sum = 0;
    for (std::size_t r = 0; r < std::size(fig4Rows); ++r)
        log_sum += std::log(
            static_cast<double>(cycles[r * fig4Cols + fig4Full]) /
            static_cast<double>(cycles[r * fig4Cols + fig4H5]));
    return std::exp(log_sum / static_cast<double>(std::size(fig4Rows)));
}

/** Gate one pass: per-cell pinned cycles, the canonical digest, and
 *  the H5/full-map ratio. @p recs is in grid order. */
void
fig4Gate(const std::vector<const RunRecord *> &recs, Outcome &o)
{
    std::uint64_t digest = fnvOffset;
    for (const RunRecord *r : recs)
        digest = fnv1a(fnv1a(digest, canonicalJson(*r)), "\n");
    if (digest != fig4Digest) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "fig4 canonical digest %016llx, pinned %016llx",
                      static_cast<unsigned long long>(digest),
                      static_cast<unsigned long long>(fig4Digest));
        o.fail(buf);
    }

    std::vector<Tick> cycles, pinned;
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const RunRecord &r = *recs[i];
        Tick want = fig4Cycles[i / fig4Cols][i % fig4Cols];
        if (recordOk(r, o) && r.simCycles != want)
            o.fail(r.id + ": " + std::to_string(r.simCycles) +
                   " cycles, pinned " + std::to_string(want));
        cycles.push_back(r.simCycles);
        pinned.push_back(want);
    }
    o.h5FullRatio = h5FullRatio(cycles);
    if (o.h5FullRatio != h5FullRatio(pinned))
        o.fail("h5_full_ratio differs from today's Figure 4 cycle counts");
}

// ---- stress_audit ---------------------------------------------------

constexpr int stressNodes = 16;

struct StressApp
{
    const char *app;
    AppParams params;
};

const StressApp stressDirApps[] = {
    {"worker", {{"wss", "4"}, {"iterations", "2"}}},
    {"tsp", {{"cities", "6"}, {"frontier", "8"}}},
};
const StressApp stressSnoopApps[] = {
    {"falseshare", {{"iterations", "8"}}},
    {"padded", {{"iterations", "8"}}},
    {"hotline", {{"iterations", "8"}}},
};

/** Apps whose final memory image does not depend on the interleaving:
 *  every cell must reproduce the quiet full-map image. TSP's shared
 *  frontier makes its heap contents timing-dependent. */
bool
imageStable(const std::string &app)
{
    return app != "tsp";
}

/** One pass of the stress grid; @p pass_seed drives jitter, faults and
 *  the snooping apps' compute jitter. */
std::vector<ExperimentSpec>
stressSpecs(std::uint64_t pass_seed)
{
    std::vector<ExperimentSpec> specs;
    for (const StressApp &sa : stressDirApps) {
        for (const SpectrumPoint &pt : protocolSpectrum()) {
            ExperimentSpec s;
            s.id = std::string("stress/") + sa.app + "/" + pt.label;
            s.app = sa.app;
            s.params = sa.params;
            s.nodes = stressNodes;
            s.victimEntries = 6;
            s.audit = true;
            s.protocol = pt.protocol;
            s.jitterMax = 37;
            s.jitterSeed = pass_seed;
            s.faultDropPerMille = 20;
            s.faultDupPerMille = 10;
            s.faultBlackoutPerMille = 5;
            s.faultSeed = pass_seed;
            s.deadline = 20'000'000;
            specs.push_back(std::move(s));
        }
    }
    for (const StressApp &sa : stressSnoopApps) {
        for (SnoopProtocol sp : {SnoopProtocol::Mesi, SnoopProtocol::Moesi,
                                 SnoopProtocol::Mesif,
                                 SnoopProtocol::Dragon}) {
            for (BusArbitration arb :
                 {BusArbitration::Fifo, BusArbitration::RoundRobin}) {
                ExperimentSpec s;
                s.id = std::string("stress/") + sa.app + "/" +
                       snoopProtocolName(sp) + "/" +
                       busArbitrationName(arb);
                s.app = sa.app;
                s.params = sa.params;
                s.params["jitter"] =
                    std::to_string(1 + pass_seed % 1'000'000'000);
                s.nodes = stressNodes;
                s.victimEntries = 6;
                s.audit = true;
                s.machineModel = MachineModel::Snoop;
                s.snoopProtocol = sp;
                s.busArbitration = arb;
                specs.push_back(std::move(s));
            }
        }
    }
    return specs;
}

/** Quiet full-map image of every stress app: the set-up's reference. */
std::map<std::string, std::uint64_t>
stressReferences(unsigned jobs, Outcome &o)
{
    std::vector<ExperimentSpec> specs;
    auto add = [&](const StressApp &sa) {
        ExperimentSpec s;
        s.id = std::string("reference/") + sa.app;
        s.app = sa.app;
        s.params = sa.params;
        s.nodes = stressNodes;
        s.victimEntries = 6;
        s.protocol = ProtocolConfig::fullMap();
        specs.push_back(std::move(s));
    };
    for (const StressApp &sa : stressDirApps)
        add(sa);
    for (const StressApp &sa : stressSnoopApps)
        add(sa);
    std::map<std::string, std::uint64_t> refs;
    Runner runner(false);
    for (const RunRecord *r : runner.runAll(specs, jobs)) {
        ++o.attempted;
        if (recordOk(*r, o))
            refs[r->app] = r->imageHash;
    }
    return refs;
}

void
stressGate(const std::vector<RunRecord *> &recs,
           const std::map<std::string, std::uint64_t> &refs, Outcome &o)
{
    for (const RunRecord *r : recs) {
        ++o.attempted;
        if (!recordOk(*r, o))
            continue;
        if (!r->audited) {
            o.fail(r->id + ": auditor was not attached");
            continue;
        }
        auto ref = refs.find(r->app);
        if (imageStable(r->app) &&
            (ref == refs.end() || ref->second != r->imageHash))
            o.fail(r->id + ": memory image differs from the quiet "
                           "full-map reference");
    }
}

// ---- replay_portable ------------------------------------------------

constexpr int replayNodes = 64;

std::vector<ExperimentSpec>
replaySpecs(std::uint64_t seed, bool smoke)
{
    struct Key
    {
        const char *app;
        AppParams params;
    };
    std::vector<Key> keys = {
        {"worker", {{"wss", "2"}}},
        {"worker", {{"wss", "4"}}},
        {"worker", {{"wss", "8"}}},
        {"smgrid", {}},
        {"evolve", {}},
    };
    if (smoke)
        keys = {{"worker", {{"wss", "2"}}}, {"evolve", {}}};
    const std::uint64_t machine_seed = 1 + mix64(seed) % 1'000'000'000;
    std::vector<ExperimentSpec> specs;
    for (const Key &k : keys) {
        for (const SpectrumPoint &pt : pointerAxis()) {
            ExperimentSpec s;
            s.id = std::string("replay/") + k.app + "/" +
                   trace::canonicalAppParams(k.params) + "/h" + pt.label;
            s.app = k.app;
            s.params = k.params;
            s.nodes = replayNodes;
            s.victimEntries = 6;
            s.protocol = pt.protocol;
            s.seed = machine_seed;
            specs.push_back(std::move(s));
        }
    }
    return specs;
}

/**
 * A canonical record with the two fields that legitimately differ
 * between a replayed and a direct run blanked: the exec_mode tag, and
 * the host event count (replay drives the processors without the
 * coroutine path's host events; EVOLVE shows it). Every simulated
 * field still compares byte for byte.
 */
std::string
comparable(std::string json)
{
    for (const char *mode : {",\"exec_mode\":\"record\"",
                             ",\"exec_mode\":\"replay\""}) {
        std::size_t at = json.find(mode);
        if (at != std::string::npos)
            json.erase(at, std::string(mode).size());
    }
    static const std::string events = ",\"events\":";
    std::size_t at = json.find("\"host\":{");
    if (at != std::string::npos &&
        (at = json.find(events, at)) != std::string::npos) {
        at += events.size();
        std::size_t end = json.find_first_of(",}", at);
        json.replace(at, end - at, "0");
    }
    return json;
}

/** One traced replay pass: record each trace key once, then replay the
 *  rest, in two parallel phases like Runner::runAllReplay. */
std::vector<CellOutcome>
decomposedReplayPass(const std::vector<ExperimentSpec> &specs,
                     const std::string &dir, unsigned jobs, Outcome &o,
                     double &trace_bytes, std::uint64_t &records)
{
    std::vector<std::size_t> first, second;
    std::set<std::string> claimed;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const ExperimentSpec &s = specs[i];
        std::string key = trace::traceFileName(
            s.app, trace::canonicalAppParams(s.params), s.nodes,
            s.sequential, true, 0);
        (claimed.insert(key).second ? first : second).push_back(i);
    }
    std::vector<CellOutcome> cells(specs.size());
    auto phase = [&](const std::vector<std::size_t> &idx, bool record) {
        std::vector<ExperimentSpec> part;
        for (std::size_t i : idx)
            part.push_back(specs[i]);
        parallelFor(idx.size(), jobs, costsOf(part), [&](std::size_t k) {
            cells[idx[k]] = record ? recordCellSteps(specs[idx[k]], dir)
                                   : replayCellSteps(specs[idx[k]], dir);
        });
    };
    auto t0 = Clock::now();
    phase(first, true);
    phase(second, false);
    double wall = secondsSince(t0);
    o.tracedPassS.add(wall);
    o.tracedWallS += wall;
    for (std::size_t i : first) {
        trace_bytes += static_cast<double>(cells[i].traceBytes);
        ++records;
    }
    return cells;
}

} // anonymous namespace

Outcome
runFig4Direct(const Options &opt)
{
    Outcome o;
    o.opName = "Figure-4 grid pass (ms)";
    // The grid is the paper's, at the default machine seed its pinned
    // cycle counts were measured with; --seed does not change it.
    std::vector<ExperimentSpec> grid;
    timedSetups(opt, o, [&] { grid = fig4Specs(); });

    CellSums sums;
    auto start = Clock::now();
    for (std::uint64_t pass = 0; keepGoing(opt, start, pass); ++pass) {
        setTracing(false);
        Runner runner(false);
        auto t0 = Clock::now();
        std::vector<RunRecord *> recs = runner.runAll(grid, opt.jobs);
        double wall = secondsSince(t0);
        countPass(o, wall, recs, opt.trace);
        o.attempted += recs.size();
        fig4Gate({recs.begin(), recs.end()}, o);

        if (opt.trace) {
            setTracing(true);
            std::vector<CellOutcome> cells =
                decomposedPass(grid, opt.jobs, o);
            setTracing(false);
            matchDecomposed(recs, cells, o, sums);
        }
    }
    addCellLayers(sums, o.layers);
    o.layers["core.h5_full_ratio"] = o.h5FullRatio;
    return o;
}

Outcome
runStressAudit(const Options &opt)
{
    Outcome o;
    o.opName = "stress grid pass (ms)";
    std::map<std::string, std::uint64_t> refs;
    timedSetups(opt, o, [&] { refs = stressReferences(opt.jobs, o); });

    CellSums sums;
    double audited_s = 0, unaudited_s = 0;
    auto start = Clock::now();
    for (std::uint64_t pass = 0; keepGoing(opt, start, pass); ++pass) {
        std::vector<ExperimentSpec> specs =
            stressSpecs(mix64(opt.seed * 1000003ull + pass));
        setTracing(false);
        Runner runner(false);
        auto t0 = Clock::now();
        std::vector<RunRecord *> recs = runner.runAll(specs, opt.jobs);
        double wall = secondsSince(t0);
        countPass(o, wall, recs, opt.trace);
        stressGate(recs, refs, o);

        if (opt.trace) {
            setTracing(true);
            std::vector<CellOutcome> cells =
                decomposedPass(specs, opt.jobs, o);
            setTracing(false);
            matchDecomposed(recs, cells, o, sums);

            // The same cells without the auditor: identical simulated
            // results, and the host time the auditor costs.
            std::vector<ExperimentSpec> plain = specs;
            for (ExperimentSpec &s : plain)
                s.audit = false;
            std::vector<double> cell_s(plain.size());
            std::vector<CellOutcome> bare(plain.size());
            parallelFor(plain.size(), opt.jobs, costsOf(plain),
                        [&](std::size_t i) {
                auto c0 = Clock::now();
                bare[i] = runCellSteps(plain[i]);
                cell_s[i] = secondsSince(c0);
            });
            for (std::size_t i = 0; i < plain.size(); ++i) {
                ++o.attempted;
                unaudited_s += cell_s[i];
                if (bare[i].simCycles != cells[i].simCycles ||
                    bare[i].image != cells[i].image)
                    o.fail(plain[i].id + ": results differ with the "
                                         "auditor detached");
            }
        }
    }
    if (opt.trace) {
        for (const SpanRecord &s : collectSpans())
            if (std::string(s.name) == "exp.runner.execute")
                audited_s += s.seconds();
        addCellLayers(sums, o.layers);
        if (audited_s > 0)
            o.layers["audit.overhead_share"] =
                (audited_s - unaudited_s) / audited_s;
    }
    return o;
}

Outcome
runReplayPortable(const Options &opt)
{
    Outcome o;
    o.opName = "cold replay sweep pass (ms)";
    std::vector<ExperimentSpec> specs;
    // Each pass records into a fresh trace directory of its own, created
    // with the pass; set-up is the spec grid.
    const std::string root = opt.runDir + "/replay";
    timedSetups(opt, o, [&] { specs = replaySpecs(opt.seed, opt.smoke); });

    std::vector<std::string> reference;   // first pass, canonical
    CellSums sums;
    double trace_bytes = 0;
    std::uint64_t recorded = 0;
    auto start = Clock::now();
    for (std::uint64_t pass = 0; keepGoing(opt, start, pass); ++pass) {
        const std::string dir = root + "/pass" + std::to_string(pass);
        std::filesystem::create_directories(dir);
        setTracing(false);
        Runner runner(false);
        auto t0 = Clock::now();
        std::vector<RunRecord *> recs =
            runner.runAllReplay(specs, opt.jobs, dir);
        double wall = secondsSince(t0);
        countPass(o, wall, recs, opt.trace);
        std::filesystem::remove_all(dir);

        for (std::size_t i = 0; i < recs.size(); ++i) {
            const RunRecord &r = *recs[i];
            std::string canon = comparable(canonicalJson(r));
            if (pass == 0)
                reference.push_back(canon);
            ++o.attempted;
            if (!recordOk(r, o))
                continue;
            if (r.execMode != "record" && r.execMode != "replay")
                o.fail(r.id + ": served by exec mode " + r.execMode);
            else if (canon != reference[i])
                o.fail(r.id + ": record differs from the first pass");
        }

        if (opt.trace) {
            const std::string tdir = dir + "-traced";
            std::filesystem::create_directories(tdir);
            setTracing(true);
            std::vector<CellOutcome> cells = decomposedReplayPass(
                specs, tdir, opt.jobs, o, trace_bytes, recorded);
            setTracing(false);
            std::filesystem::remove_all(tdir);
            matchDecomposed(recs, cells, o, sums);
        }
    }

    // Outside the timed region: every replayed record must equal direct
    // execution of the same spec, byte for byte in canonical form.
    Runner direct(false);
    std::vector<RunRecord *> want = direct.runAll(specs, opt.jobs);
    for (std::size_t i = 0; i < want.size() && i < reference.size(); ++i)
        if (comparable(canonicalJson(*want[i])) != reference[i])
            o.fail(specs[i].id + ": replayed record differs from direct "
                                 "execution");
    std::error_code ec;
    std::filesystem::remove_all(root, ec);

    if (opt.trace) {
        addCellLayers(sums, o.layers);
        if (recorded > 0)
            o.layers["trace.bytes"] =
                trace_bytes / static_cast<double>(recorded);
    }
    return o;
}

} // namespace perfbench
