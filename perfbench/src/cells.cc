#include "cells.hh"

#include <filesystem>
#include <functional>
#include <memory>
#include <sstream>

#include "apps/registry.hh"
#include "audit/auditor.hh"
#include "core/home_controller.hh"
#include "exp/runner.hh"
#include "machine/machine.hh"
#include "machine/snoop.hh"
#include "net/delivery.hh"
#include "spans.hh"
#include "trace/recorder.hh"
#include "trace/replay.hh"
#include "trace/trace_format.hh"

namespace perfbench
{

using namespace swex;

namespace
{

/** The app's program on @p m, exactly as App::runParallel /
 *  App::runSequential drive it once setup() has run. */
Tick
runProgram(Machine &m, App &app, bool sequential)
{
    if (sequential) {
        return m.run([&app](Mem &mem, int tid) -> Task<void> {
            mem.setFootprint(app.footprint(mem.machine(), tid));
            co_await app.sequential(mem);
        }, 1);
    }
    return m.run([&app](Mem &mem, int tid) -> Task<void> {
        mem.setFootprint(app.footprint(mem.machine(), tid));
        co_await app.thread(mem, tid);
    });
}

/** Simulate with host timing; every simulation call is one span. */
Tick
timedRun(CellOutcome &out, const std::function<Tick()> &run)
{
    Span s("machine.run");
    auto t0 = Clock::now();
    Tick cycles = run();
    out.runSeconds = secondsSince(t0);
    return cycles;
}

/** Everything Runner::execute does after the run: verification,
 *  invariants, image hash, auditor results, counters, stats dump. */
void
finishCell(Machine &m, const ExperimentSpec &spec,
           CoherenceAuditor &auditor, bool audited,
           const std::function<bool()> &verify, CellOutcome &out)
{
    out.completed = m.runStatus() == Machine::RunStatus::Completed;
    out.sequential = spec.sequential;
    out.nodes = spec.sequential ? 1 : spec.nodes;
    if (out.completed) {
        Span s("apps.verify");
        out.verified = verify();
    }
    {
        Span s("machine.check");
        if (out.completed)
            m.checkInvariants();
        out.image = m.imageHash();
    }
    if (audited) {
        out.auditTransitions = auditor.transitionsChecked();
        out.auditViolations = auditor.violationCount();
        m.attachAuditor(nullptr);
    }

    out.events = static_cast<double>(m.eventq.numExecuted());
    out.traps = m.sumStat("home.trapsRaised");
    out.handlerCycles = m.sumStat("home.handlerCycles");
    out.messages = static_cast<double>(m.backend->trafficMessages());
    for (const auto &node : m.nodes) {
        const HomeController *home = node->coh->home();
        if (!home)
            continue;
        out.readHandlerSum += home->readHandlerCycles.sum();
        out.readHandlerCount += home->readHandlerCycles.count();
        out.writeHandlerSum += home->writeHandlerCycles.sum();
        out.writeHandlerCount += home->writeHandlerCycles.count();
    }
    if (const DeliveryLayer *d = m.network.delivery()) {
        out.retransmits = d->retransmits.value();
        out.dupsSuppressed = d->dupSuppressed.value();
    }
    if (const auto *bus = dynamic_cast<const SnoopBackend *>(
            m.backend.get()))
        out.busTransactions = bus->transactions.value();

    Span s("machine.stats");
    std::ostringstream json, text;
    m.root.dumpJson(json);
    m.dumpStats(text);
}

/**
 * Serialize the machine's recorded op streams as Runner::execute does:
 * always under the exact-config name, and under the portable name too
 * when @p write_portable and the app is trace-portable. Existing files
 * are kept when @p skip_existing. @return "" or the error.
 */
std::string
saveTraces(const ExperimentSpec &spec, const MachineConfig &mc,
           const Machine &m, const CellOutcome &cell,
           const std::string &dir, bool write_portable,
           bool skip_existing, std::uint64_t *portable_bytes)
{
    Span s("trace.save");
    const TraceRecorder *rec = m.recorder();
    if (rec == nullptr)
        return "machine has no recorder";
    const AppRegistry &reg = AppRegistry::instance();
    const bool portable =
        reg.contains(spec.app) && reg.entry(spec.app).tracePortable;

    trace::Trace t;
    t.meta.portable = portable;
    t.meta.sequential = spec.sequential;
    t.meta.appNodes = static_cast<std::uint32_t>(spec.nodes);
    t.meta.numThreads = static_cast<std::uint32_t>(rec->numThreads());
    t.meta.configFingerprint = trace::configFingerprint(mc);
    t.meta.recordedCycles = cell.simCycles;
    t.meta.recordedImageHash = cell.image;
    t.meta.seed = mc.seed;
    t.meta.app = spec.app;
    t.meta.params = trace::canonicalAppParams(spec.params);
    t.meta.protocol = mc.protocol.name();
    for (int i = 0; i < rec->numThreads(); ++i)
        t.streams.push_back(rec->stream(i));

    std::string err;
    auto save = [&](bool as_portable) {
        std::string path = dir + "/" +
            trace::traceFileName(spec.app, t.meta.params, spec.nodes,
                                 spec.sequential, as_portable,
                                 as_portable ? 0
                                             : t.meta.configFingerprint);
        if (skip_existing && std::filesystem::exists(path))
            return true;
        if (!t.save(path, err))
            return false;
        if (as_portable && portable_bytes != nullptr)
            *portable_bytes = std::filesystem::file_size(path);
        return true;
    };
    if (!save(false))
        return err;
    if (portable && write_portable && !save(true))
        return err;
    return "";
}

/** Shared body of the direct and record cells. */
CellOutcome
directCell(const ExperimentSpec &spec, const std::string *trace_dir)
{
    Span cell("exp.runner.execute");
    CellOutcome out;
    ExperimentSpec s = spec;
    s.execMode = trace_dir ? ExecutionMode::Record : ExecutionMode::Direct;

    std::unique_ptr<App> app;
    {
        Span b("apps.build");
        app = AppRegistry::instance().make(s.app, s.params, s.nodes);
    }
    MachineConfig mc = Runner::machineFor(s);
    std::unique_ptr<Machine> m;
    {
        Span c("machine.construct");
        m = std::make_unique<Machine>(mc);
    }
    CoherenceAuditor auditor(CoherenceAuditor::Mode::Collect);
    const bool audited = s.audit && !s.sequential;
    if (audited)
        m->attachAuditor(&auditor);
    {
        Span u("apps.setup");
        app->setup(*m);
    }
    auto run = [&] { return runProgram(*m, *app, s.sequential); };
    if (trace_dir) {
        Span r("trace.record");
        out.simCycles = timedRun(out, run);
    } else {
        out.simCycles = timedRun(out, run);
    }
    finishCell(*m, s, auditor, audited, [&] { return app->verify(*m); },
               out);
    if (trace_dir && out.completed)
        out.error = saveTraces(s, mc, *m, out, *trace_dir, true, false,
                               &out.traceBytes);
    Span d("machine.destroy");
    m.reset();
    app.reset();
    return out;
}

} // anonymous namespace

CellOutcome
runCellSteps(const ExperimentSpec &spec)
{
    return directCell(spec, nullptr);
}

CellOutcome
recordCellSteps(const ExperimentSpec &spec, const std::string &trace_dir)
{
    return directCell(spec, &trace_dir);
}

CellOutcome
replayCellSteps(const ExperimentSpec &spec, const std::string &trace_dir)
{
    Span cell("exp.runner.execute");
    CellOutcome out;
    ExperimentSpec s = spec;
    s.execMode = ExecutionMode::Replay;
    s.traceDir = trace_dir;

    std::unique_ptr<App> app;
    {
        Span b("apps.build");
        app = AppRegistry::instance().make(s.app, s.params, s.nodes);
    }
    MachineConfig mc = Runner::machineFor(s);
    std::unique_ptr<trace::ReplayProgram> prog;
    {
        Span l("trace.load");
        trace::Trace t;
        std::string err = Runner::findReplayTrace(s, t);
        if (!err.empty()) {
            out.error = err;
            return out;
        }
        prog = std::make_unique<trace::ReplayProgram>(std::move(t));
    }
    std::unique_ptr<Machine> m;
    {
        Span c("machine.construct");
        m = std::make_unique<Machine>(mc);
    }
    CoherenceAuditor auditor(CoherenceAuditor::Mode::Collect);
    const bool audited = s.audit && !s.sequential;
    if (audited)
        m->attachAuditor(&auditor);
    {
        Span u("apps.setup");
        app->setup(*m);
    }
    {
        Span r("trace.replay_run");
        out.simCycles = timedRun(out, [&] {
            return m->runReplay(prog->sources());
        });
    }
    const trace::TraceMeta &meta = prog->trace().meta;
    finishCell(*m, s, auditor, audited, [&] {
        bool ok = m->imageHash() == meta.recordedImageHash;
        if (trace::configFingerprint(mc) == meta.configFingerprint &&
            out.simCycles != meta.recordedCycles)
            ok = false;
        return ok;
    }, out);
    if (out.completed && out.verified)
        saveTraces(s, mc, *m, out, trace_dir, false, true, nullptr);
    Span d("machine.destroy");
    m.reset();
    app.reset();
    prog.reset();
    return out;
}

} // namespace perfbench
