#include "machine/processor.hh"

#include "base/logging.hh"
#include "core/home_controller.hh"
#include "machine/machine.hh"
#include "machine/node.hh"

namespace swex
{

Processor::Processor(Node &node, const ProcessorConfig &config,
                     stats::Group *stats_parent)
    : statsGroup(stats_parent, "proc"),
      userCycles(&statsGroup, "userCycles"),
      handlerCycles(&statsGroup, "handlerCycles"),
      trapsRun(&statsGroup, "trapsRun"),
      memOps(&statsGroup, "memOps"),
      ifetchPenalty(&statsGroup, "ifetchPenalty"),
      watchdogFirings(&statsGroup, "watchdogFirings"),
      memStallCycles(&statsGroup, "memStallCycles"),
      _node(node), cfg(config)
{
}

void
Processor::runThread(Task<void> t)
{
    SWEX_ASSERT(t.valid(), "runThread: invalid task");
    replaySrc = nullptr;
    mainTask = std::move(t);
    finished = false;
    _node.eventq().scheduleIn(startEvent, 0);
}

void
Processor::runReplay(ReplaySource *src)
{
    SWEX_ASSERT(src, "runReplay: null source");
    replaySrc = src;
    finished = false;
    // The batch fast path jumps the clock over multiple quiet ops at
    // once, which would let a deadline check in the run loop slip; a
    // deadline'd replay therefore runs fully evented (still exact).
    replayBatchOk = _node.machine().config().deadline == 0;
    _node.eventq().scheduleIn(startEvent, 0);
}

void
Processor::onThreadStart()
{
    if (replaySrc) {
        advanceReplay();
        return;
    }
    mainTask.start();
    if (mainTask.done() && !finished) {
        finished = true;
        mainTask.rethrowIfFailed();
        _node.machine().threadFinished();
    }
}

void
Processor::advanceReplay()
{
    SWEX_ASSERT(replaySrc && !replayAdvancing,
                "re-entrant replay advance");
    replayAdvancing = true;
    // Each iteration issues one suspending op. When the op completes
    // synchronously (the batch window was open), the completion path
    // lands back in resumeUser, which flags replayOpDone instead of
    // recursing, and we issue the next op from this same frame.
    do {
        replayOpDone = false;
        if (!replaySrc->advance(*this)) {
            replayAdvancing = false;
            finished = true;
            _node.machine().threadFinished();
            return;
        }
    } while (replayOpDone);
    replayAdvancing = false;
}

void
Processor::replayBarrier()
{
    _node.machine().barrierArrive(_node.id(),
                                  std::noop_coroutine());
}

bool
Processor::replayBatchWindow(Cycles delay)
{
    if (!replayAdvancing || !replayBatchOk)
        return false;
    EventQueue &q = _node.eventq();
    Tick done = q.curTick() + delay;
    if (done >= q.nextPendingTick() || done > maxTicks)
        return false;
    q.advanceTo(done);
    return true;
}

void
Processor::setFootprint(std::vector<Addr> blocks)
{
    footprint = std::move(blocks);
    for (auto &a : footprint)
        a = blockAlign(a);
}

Cycles
Processor::instrFetchPenalty()
{
    if (cfg.perfectIfetch || footprint.empty())
        return 0;
    Cycles penalty = 0;
    for (Addr a : footprint)
        penalty += _node.coh->instrTouch(a);
    ifetchPenalty += static_cast<double>(penalty);
    return penalty;
}

void
Processor::startWork(Cycles n, std::coroutine_handle<> h)
{
    SWEX_ASSERT(!workCont && !userComputing, "work already in flight");
    workCont = h;
    workRemaining = n + instrFetchPenalty();
    tryRunUser();
}

void
Processor::startMemOp(MemOpType t, Addr a, Word operand,
                      std::coroutine_handle<> h)
{
    SWEX_ASSERT(!memCont, "memory op already outstanding");
    ++memOps;
    memCont = h;
    memResumeReady = false;
    memIssueTick = _node.eventq().curTick();
    _node.coh->issue(t, a, operand);
}

void
Processor::completeMemOp(Word value)
{
    SWEX_ASSERT(memCont, "completion with no op outstanding");
    lastValue = value;
    _node.machine().noteProgress();
    if (handlerActive || watchdogActive) {
        // Resume once the handler chain (or watchdog window) ends.
        memResumeReady = true;
        if (watchdogActive && !handlerActive) {
            // Watchdog window exists to let user code run: do it now.
            memResumeReady = false;
            memStallCycles +=
                static_cast<double>(_node.eventq().curTick() -
                                    memIssueTick);
            auto h = memCont;
            memCont = nullptr;
            handlersSinceUser = 0;
            resumeUser(h);
        }
        return;
    }
    memStallCycles += static_cast<double>(_node.eventq().curTick() -
                                          memIssueTick);
    auto h = memCont;
    memCont = nullptr;
    handlersSinceUser = 0;
    resumeUser(h);
}

void
Processor::resumeUser(std::coroutine_handle<> h)
{
    if (replaySrc) {
        // The replay cursor stands in for the coroutine. Inside a
        // synchronous advance (batched completion) just flag the op
        // done so the active advance loop issues the next one;
        // otherwise this is a genuine event-driven resume.
        if (replayAdvancing)
            replayOpDone = true;
        else
            advanceReplay();
        return;
    }
    h.resume();
    if (mainTask.valid() && mainTask.done() && !finished) {
        finished = true;
        mainTask.rethrowIfFailed();
        _node.machine().threadFinished();
    }
}

void
Processor::tryRunUser()
{
    if (handlerActive || userComputing)
        return;
    if (memResumeReady) {
        memResumeReady = false;
        memStallCycles += static_cast<double>(_node.eventq().curTick() -
                                              memIssueTick);
        auto h = memCont;
        memCont = nullptr;
        handlersSinceUser = 0;
        resumeUser(h);
        return;
    }
    if (workCont) {
        if (workRemaining == 0) {
            auto h = workCont;
            workCont = nullptr;
            handlersSinceUser = 0;
            resumeUser(h);
            return;
        }
        userComputing = true;
        workStart = _node.eventq().curTick();
        if (replayBatchWindow(workRemaining)) {
            // No event precedes the completion tick: run onWorkDone
            // at that tick directly instead of round-tripping the
            // queue. Identical outcome — the same handler at the
            // same tick with nothing in between.
            onWorkDone();
            return;
        }
        _node.eventq().scheduleIn(workDoneEvent, workRemaining);
    }
}

void
Processor::onWorkDone()
{
    SWEX_ASSERT(userComputing,
                "work completion fired while not computing");
    userComputing = false;
    userCycles += static_cast<double>(workRemaining);
    workRemaining = 0;
    auto h = workCont;
    workCont = nullptr;
    handlersSinceUser = 0;
    resumeUser(h);
}

void
Processor::preemptWork()
{
    // Preempt the user's compute; remember the remainder.
    Tick now = _node.eventq().curTick();
    Cycles elapsed = now - workStart;
    if (elapsed > workRemaining)
        elapsed = workRemaining;
    userCycles += static_cast<double>(elapsed);
    workRemaining -= elapsed;
    if (workDoneEvent.scheduled())
        _node.eventq().deschedule(workDoneEvent);
    userComputing = false;
}

void
Processor::raiseTrap(const TrapItem &item)
{
    trapQueue.push_back(item);
    if (watchdogActive || handlerActive)
        return;   // deferred / will chain
    if (userComputing)
        preemptWork();
    startNextHandler();
}

void
Processor::startNextHandler()
{
    if (trapQueue.empty()) {
        handlerActive = false;
        tryRunUser();
        return;
    }

    bool user_pending = memResumeReady || workCont != nullptr;
    if (cfg.watchdog && user_pending &&
        handlersSinceUser >= watchdogThreshold) {
        // Livelock watchdog (Section 4.1): shut off asynchronous
        // handler processing and let user code run unmolested.
        ++watchdogFirings;
        watchdogActive = true;
        handlerActive = false;
        handlersSinceUser = 0;
        _node.eventq().scheduleIn(watchdogEvent, watchdogWindow);
        tryRunUser();
        return;
    }

    TrapItem item = trapQueue.front();
    trapQueue.pop_front();
    handlerActive = true;
    ++trapsRun;
    ++handlersSinceUser;

    Cycles c = _node.home().runTrap(item);
    handlerCycles += static_cast<double>(c);
    _node.eventq().scheduleIn(handlerDoneEvent, c);
}

void
Processor::onWatchdogExpire()
{
    watchdogActive = false;
    if (handlerActive || trapQueue.empty())
        return;
    if (userComputing)
        preemptWork();
    startNextHandler();
}

void
Processor::onHandlerDone()
{
    handlerActive = false;
    startNextHandler();
}

} // namespace swex
