#include "exp/runner.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <utility>

#include "audit/auditor.hh"
#include "base/logging.hh"
#include "core/home_controller.hh"
#include "exp/cache/result_cache.hh"
#include "exp/pool.hh"
#include "machine/node.hh"
#include "trace/recorder.hh"
#include "trace/replay.hh"

namespace swex
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
}

bool
fileExists(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return false;
    std::fclose(f);
    return true;
}

bool
appIsPortable(const std::string &app)
{
    return AppRegistry::instance().contains(app) &&
           AppRegistry::instance().entry(app).tracePortable;
}

const char *
execModeName(ExecutionMode mode)
{
    switch (mode) {
      case ExecutionMode::Direct: return "direct";
      case ExecutionMode::Record: return "record";
      case ExecutionMode::Replay: return "replay";
    }
    return "direct";
}

/**
 * Serialize the recorder's streams plus the run's identity into a
 * trace and save it under the cache directory: always under the
 * exact-config filename (the only replay a non-portable app has),
 * and — when the app is registry-portable — under the portable
 * filename too, so one recording seeds every protocol cell.
 * @return "" on success, else the error.
 */
std::string
saveRecordedTrace(const ExperimentSpec &spec, const MachineConfig &mc,
                  const Machine &m, const RunRecord &record)
{
    std::string dir = trace::resolveTraceDir(spec.traceDir);
    if (dir.empty())
        return "no trace directory (set spec.traceDir or "
               "$SWEX_TRACE_CACHE)";
    const TraceRecorder *rec = m.recorder();
    SWEX_ASSERT(rec, "record run without a recorder");

    bool portable = appIsPortable(spec.app);
    trace::Trace t;
    t.meta.portable = portable;
    t.meta.sequential = spec.sequential;
    t.meta.appNodes = static_cast<std::uint32_t>(spec.nodes);
    t.meta.numThreads = static_cast<std::uint32_t>(rec->numThreads());
    t.meta.configFingerprint = trace::configFingerprint(mc);
    t.meta.recordedCycles = record.simCycles;
    t.meta.recordedImageHash = record.imageHash;
    t.meta.seed = mc.seed;
    t.meta.app = spec.app;
    t.meta.params = trace::canonicalAppParams(spec.params);
    t.meta.protocol = mc.protocol.name();
    t.streams.reserve(static_cast<std::size_t>(rec->numThreads()));
    for (int i = 0; i < rec->numThreads(); ++i)
        t.streams.push_back(rec->stream(i));

    std::string err;
    std::string cfg_path = dir + "/" +
        trace::traceFileName(spec.app, t.meta.params, spec.nodes,
                             spec.sequential, false,
                             t.meta.configFingerprint);
    if (!t.save(cfg_path, err))
        return err;
    if (portable) {
        std::string port_path = dir + "/" +
            trace::traceFileName(spec.app, t.meta.params, spec.nodes,
                                 spec.sequential, true, 0);
        if (!t.save(port_path, err))
            return err;
    }
    return "";
}

} // anonymous namespace

MachineConfig
Runner::machineFor(const ExperimentSpec &spec)
{
    MachineConfig mc;
    if (spec.sequential) {
        // The paper's speedup baseline: 1 node, full-map (software
        // extension never invoked), victim caching on.
        mc.numNodes = 1;
        mc.protocol = ProtocolConfig::fullMap();
        mc.victimEntries = 6;
    } else {
        mc = spec.machine();
    }
    mc.executionMode = spec.execMode;
    return mc;
}

std::string
Runner::findReplayTrace(const ExperimentSpec &spec, trace::Trace &out)
{
    std::string dir = trace::resolveTraceDir(spec.traceDir);
    if (dir.empty())
        return "no trace directory (set --trace-dir or "
               "$SWEX_TRACE_CACHE)";

    std::string params = trace::canonicalAppParams(spec.params);
    MachineConfig mc = machineFor(spec);
    std::uint64_t fp = trace::configFingerprint(mc);

    // An exact config-bound recording first: bit-identical replay
    // under this machine config by determinism induction.
    std::string cfg_path = dir + "/" +
        trace::traceFileName(spec.app, params, spec.nodes,
                             spec.sequential, false, fp);
    std::string cfg_err;
    if (trace::Trace::load(cfg_path, out, cfg_err)) {
        std::string m = out.keyMismatch(spec.app, params, spec.nodes,
                                        spec.sequential);
        if (!m.empty())
            return cfg_path + ": " + m;
        if (out.meta.configFingerprint != fp)
            return cfg_path + ": machine-config fingerprint mismatch; "
                              "re-record";
        return "";
    }

    // Then a portable recording — but only when the registry declares
    // the app's op stream timing-independent. A trace file claiming
    // portability for an app the registry knows spins on shared state
    // is refused: replaying it under a different config would
    // silently diverge from direct execution.
    if (!appIsPortable(spec.app))
        return cfg_err + " (app '" + spec.app +
               "' is not trace-portable: its op stream depends on "
               "timing, so only an exact-config recording can replay)";

    std::string port_path = dir + "/" +
        trace::traceFileName(spec.app, params, spec.nodes,
                             spec.sequential, true, 0);
    std::string port_err;
    if (!trace::Trace::load(port_path, out, port_err))
        return port_err;
    if (!out.meta.portable)
        return port_path + ": trace not recorded as portable; "
                           "re-record";
    std::string m = out.keyMismatch(spec.app, params, spec.nodes,
                                    spec.sequential);
    if (!m.empty())
        return port_path + ": " + m;
    return "";
}

RunRecord
Runner::execute(const ExperimentSpec &spec) const
{
    // A warm result-cache cell short-circuits everything below — no
    // app, no machine, no simulation. The probe comes before replay
    // trace resolution on purpose: a cached record must be servable
    // even when the trace directory is gone. A corrupt or stale entry
    // reads as a miss (and is deleted), so the simulation is the
    // fallback path, not an error path.
    RunRecord cached;
    if (probe(spec, cached))
        return cached;
    return simulate(spec);
}

bool
Runner::probe(const ExperimentSpec &spec, RunRecord &out) const
{
    return _cache != nullptr && spec.execMode != ExecutionMode::Record &&
           _cache->lookup(spec, out);
}

RunRecord
Runner::simulate(const ExperimentSpec &spec) const
{
    auto app = AppRegistry::instance().make(spec.app, spec.params,
                                            spec.nodes);

    MachineConfig mc = machineFor(spec);

    // Replay: resolve and validate the trace before building the
    // machine, so every failure is a structured message up front.
    std::unique_ptr<trace::ReplayProgram> prog;
    if (spec.execMode == ExecutionMode::Replay) {
        trace::Trace t;
        std::string err = findReplayTrace(spec, t);
        if (!err.empty())
            fatal("replay %s: %s", spec.id.c_str(), err.c_str());
        SWEX_ASSERT(static_cast<int>(t.streams.size()) <= mc.numNodes,
                    "trace has more threads (%zu) than machine nodes "
                    "(%d)", t.streams.size(), mc.numNodes);
        prog = std::make_unique<trace::ReplayProgram>(std::move(t));
    }

    auto t0 = std::chrono::steady_clock::now();
    Machine m(mc);
    CoherenceAuditor auditor(CoherenceAuditor::Mode::Collect);
    if (spec.audit && !spec.sequential)
        m.attachAuditor(&auditor);

    RunRecord record;
    record.sequential = spec.sequential;
    record.execMode = execModeName(spec.execMode);
    if (prog) {
        // Replay reproduces the op streams, not the initial image:
        // the app still allocates and initializes shared data.
        app->setup(m);
        record.simCycles = m.runReplay(prog->sources());
    } else {
        record.simCycles = spec.sequential ? app->runSequential(m)
                                           : app->runParallel(m);
    }
    record.hostWallSeconds = secondsSince(t0);

    switch (m.runStatus()) {
      case Machine::RunStatus::Completed:
        record.status = "ok";
        break;
      case Machine::RunStatus::DeadlineExceeded:
        record.status = "deadline";
        break;
      case Machine::RunStatus::Deadlocked:
        record.status = "deadlock";
        break;
    }

    if (record.failed()) {
        // The run was abandoned mid-transaction, so it was not swept
        // and cannot be verified. Record what stalled instead.
        record.lastProgress = m.lastProgressTick();
        record.stallSummary = m.backend->stallSummary();
    } else if (prog) {
        // Replay cannot run the app's own verify(): host-side
        // expectation counters (e.g. TSP's expansion count) only
        // advance when the coroutines execute. The replay witness is
        // stronger anyway — the coherent memory image must hash to
        // the recorded run's image, and an exact-config replay must
        // land on the recorded cycle count bit for bit.
        const trace::TraceMeta &meta = prog->trace().meta;
        record.verified = m.imageHash() == meta.recordedImageHash;
        if (trace::configFingerprint(mc) == meta.configFingerprint &&
            record.simCycles != meta.recordedCycles) {
            record.verified = false;
        }
    } else {
        record.verified = app->verify(m);
    }
    record.imageHash = m.imageHash();
    if (spec.audit && !spec.sequential) {
        record.audited = true;
        record.auditTransitions = auditor.transitionsChecked();
        record.auditViolations = auditor.violationCount();
        for (const AuditViolation &v : auditor.violations())
            warn("audit: %s", v.describe().c_str());
        m.attachAuditor(nullptr);
    }
    record.faultDrop = mc.net.faults.dropPerMille;
    record.faultDup = mc.net.faults.dupPerMille;
    record.faultBlackout = mc.net.faults.blackoutPerMille;
    record.faultSeed = mc.net.faults.seed;
    record.deadline = mc.deadline;

    record.id = spec.id;
    record.app = spec.app;
    record.protocol = m.backend->protocolName();
    record.machineModel = machineModelName(mc.machineModel);
    record.nodes = spec.sequential ? 1 : spec.nodes;

    record.hostEvents = static_cast<double>(m.eventq.numExecuted());

    record.trapsRaised = m.sumStat("home.trapsRaised");
    record.handlerCycles = m.sumStat("home.handlerCycles");
    record.messages = m.backend->trafficMessages();

    double rsum = 0, wsum = 0;
    std::uint64_t rcnt = 0, wcnt = 0;
    for (const auto &node : m.nodes) {
        const HomeController *home = node->coh->home();
        if (!home)
            continue;   // non-directory models have no trap handlers
        rsum += home->readHandlerCycles.sum();
        rcnt += home->readHandlerCycles.count();
        wsum += home->writeHandlerCycles.sum();
        wcnt += home->writeHandlerCycles.count();
    }
    record.readHandlerMean = rcnt ? rsum / static_cast<double>(rcnt) : 0;
    record.readHandlerCount = rcnt;
    record.writeHandlerMean = wcnt ? wsum / static_cast<double>(wcnt) : 0;
    record.writeHandlerCount = wcnt;

    if (spec.trackSharing && !spec.sequential)
        record.workerSets = m.tracker.endOfRunHistogram(spec.nodes);

    // Records outlive the machine (run logs, sweep results, the
    // cache), so they keep the rendered stats without growth slack.
    m.root.renderJson(record.statsJson);
    record.statsJson.shrink_to_fit();

    // Persist the captured op streams. Failed (deadline/deadlock)
    // runs are never saved: their streams are truncated mid-program
    // and could not replay to the same outcome.
    if (spec.execMode == ExecutionMode::Record && !record.failed()) {
        std::string err = saveRecordedTrace(spec, mc, m, record);
        if (!err.empty())
            fatal("record %s: %s", spec.id.c_str(), err.c_str());
    }

    // Store policy: only a direct-mode, completed, verified,
    // violation-free record enters the cache, so a later hit serves
    // exactly the bytes a direct run would emit. Replay results are
    // bit-identical anyway but carry execMode "replay" in the
    // document; caching them would leak the execution strategy into
    // cache-served records. A store failure costs throughput,
    // never correctness.
    if (_cache != nullptr && spec.execMode == ExecutionMode::Direct &&
        !record.failed() && record.verified &&
        record.auditViolations == 0) {
        std::string err;
        if (!_cache->store(spec, record, err))
            warn("cache %s: store failed: %s", spec.id.c_str(),
                 err.c_str());
    }
    return record;
}

void
Runner::enforce(const RunRecord &r) const
{
    if (!failFast)
        return;
    if (r.failed()) {
        fatal("%s did not complete under %s (%d nodes): %s at tick "
              "%llu\n%s",
              r.app.c_str(), r.protocol.c_str(), r.nodes,
              r.status.c_str(),
              static_cast<unsigned long long>(r.lastProgress),
              r.stallSummary.c_str());
    }
    if (!r.verified) {
        fatal("%s failed verification under %s (%d nodes%s)",
              r.app.c_str(), r.protocol.c_str(), r.nodes,
              r.sequential ? ", sequential" : "");
    }
    if (r.auditViolations > 0) {
        fatal("%s violated %llu coherence invariants under %s "
              "(%d nodes)",
              r.app.c_str(),
              static_cast<unsigned long long>(r.auditViolations),
              r.protocol.c_str(), r.nodes);
    }
}

RunRecord &
Runner::run(const ExperimentSpec &spec)
{
    RunRecord &logged = _log.add(execute(spec));
    enforce(logged);
    return logged;
}

RunRecord &
Runner::runSequential(const ExperimentSpec &spec)
{
    ExperimentSpec seq_spec = spec;
    seq_spec.sequential = true;
    return run(seq_spec);
}

std::vector<RunRecord *>
Runner::runAll(const std::vector<ExperimentSpec> &specs, unsigned jobs)
{
    // Execute into an index-addressed scratch vector — the only
    // cross-thread state, and written at disjoint indices — then
    // merge into the log in spec order so the document layout is
    // independent of completion order.
    std::vector<RunRecord> results(specs.size());

    // Longest-first claiming order: big cells (many nodes, heavy
    // apps) start first so the sweep never ends waiting on a large
    // simulation claimed at the tail. Results are merged by index,
    // so the schedule cannot affect the document.
    std::vector<double> costs;
    costs.reserve(specs.size());
    for (const ExperimentSpec &s : specs) {
        double w = 1.0;
        if (AppRegistry::instance().contains(s.app))
            w = AppRegistry::instance().entry(s.app).costWeight;
        costs.push_back(w * static_cast<double>(
                                s.sequential ? 1 : s.nodes));
    }

    parallelFor(specs.size(), jobs, costs, [&](std::size_t i) {
        results[i] = execute(specs[i]);
    });

    std::vector<RunRecord *> out;
    out.reserve(specs.size());
    for (RunRecord &r : results)
        out.push_back(&_log.add(std::move(r)));
    for (const RunRecord *r : out)
        enforce(*r);
    return out;
}

std::vector<RunRecord *>
Runner::runAllReplay(const std::vector<ExperimentSpec> &specs,
                     unsigned jobs, const std::string &trace_dir)
{
    std::string dir = trace::resolveTraceDir(trace_dir);
    if (dir.empty()) {
        fatal("runAllReplay: no trace directory (pass trace_dir or "
              "set $SWEX_TRACE_CACHE)");
    }

    // Partition: phase one records each portable trace key once (or
    // trusts an existing cached portable trace) and runs non-portable
    // cells directly; phase two fans every remaining cell out as an
    // event-driven replay of the now-cached trace.
    std::vector<ExperimentSpec> work(specs.begin(), specs.end());
    std::set<std::string> claimed;
    std::vector<std::size_t> first, second;
    for (std::size_t i = 0; i < work.size(); ++i) {
        ExperimentSpec &s = work[i];
        // Result-cache-warm cells leave the record/replay economy
        // entirely: run them "Direct" so execute()'s cache probe
        // serves them from disk (or, if the entry turns out corrupt,
        // falls back to a genuine direct run). They neither claim a
        // recording slot nor need the trace — only the cold cells
        // partition below.
        if (_cache != nullptr && _cache->contains(s)) {
            s.execMode = ExecutionMode::Direct;
            first.push_back(i);
            continue;
        }
        if (!appIsPortable(s.app)) {
            s.execMode = ExecutionMode::Direct;
            first.push_back(i);
            continue;
        }
        s.traceDir = dir;
        std::string params = trace::canonicalAppParams(s.params);
        std::string port_key = trace::traceFileName(
            s.app, params, s.nodes, s.sequential, true, 0);
        if (!fileExists(dir + "/" + port_key) &&
            claimed.insert(port_key).second) {
            s.execMode = ExecutionMode::Record;
            first.push_back(i);
        } else {
            s.execMode = ExecutionMode::Replay;
            second.push_back(i);
        }
    }

    std::vector<RunRecord> results(work.size());
    auto phase = [&](const std::vector<std::size_t> &idx) {
        std::vector<double> costs;
        costs.reserve(idx.size());
        for (std::size_t i : idx) {
            const ExperimentSpec &s = work[i];
            double w = 1.0;
            if (AppRegistry::instance().contains(s.app))
                w = AppRegistry::instance().entry(s.app).costWeight;
            costs.push_back(w * static_cast<double>(
                                    s.sequential ? 1 : s.nodes));
        }
        parallelFor(idx.size(), jobs, costs, [&](std::size_t k) {
            results[idx[k]] = execute(work[idx[k]]);
        });
    };
    phase(first);
    phase(second);

    std::vector<RunRecord *> out;
    out.reserve(work.size());
    for (RunRecord &r : results)
        out.push_back(&_log.add(std::move(r)));
    for (const RunRecord *r : out)
        enforce(*r);
    return out;
}

bool
Runner::emitRecords() const
{
    if (_log.writeEnv())
        return true;
    // Deliberately not warn(): benches run with setQuiet(true), and a
    // dropped record file must never be silent.
    const char *path = std::getenv(RunLog::envVar);
    std::fprintf(stderr,
                 "error: could not write run records to $%s (%s)\n",
                 RunLog::envVar, path != nullptr ? path : "unset");
    return false;
}

} // namespace swex
