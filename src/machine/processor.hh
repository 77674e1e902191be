/**
 * @file
 * The Sparcle-like processor model. Each processor runs one simulated
 * thread (a C++20 coroutine) and takes software-extension traps from
 * its node's home controller. Handlers preempt user execution and
 * steal its cycles, exactly the effect the paper measures.
 *
 * Execution model:
 *  - work(n): n cycles of compute. Instruction fetches for the
 *    thread's current footprint are charged at the start of each work
 *    segment and may thrash with data in the combined direct-mapped
 *    cache (the Figure 3 effect). Preemptible by traps.
 *  - memory operations: issued to the cache controller; the coroutine
 *    suspends until the coherence protocol delivers the result.
 *  - traps: queued TrapItems run to completion, one at a time; the
 *    livelock watchdog (Section 4.1) throttles them when user code is
 *    starved (needed by the ACK protocols).
 */

#ifndef SWEX_MACHINE_PROCESSOR_HH
#define SWEX_MACHINE_PROCESSOR_HH

#include <coroutine>
#include <deque>
#include <vector>

#include "base/stats.hh"
#include "base/types.hh"
#include "core/node_services.hh"
#include "sim/event.hh"
#include "sim/task.hh"

namespace swex
{

class Node;

/** Kinds of processor memory operations. */
enum class MemOpType : std::uint8_t
{
    Load,
    Store,
    FetchAdd,   ///< atomic fetch-and-add, returns old value
    Swap,       ///< atomic swap, returns old value
};

// Livelock watchdog (Section 4.1).
constexpr Cycles watchdogWindow = 1000;   ///< user-only window when starved
constexpr unsigned watchdogThreshold = 8; ///< handlers in a row to trigger

/** Processor behavior knobs. */
struct ProcessorConfig
{
    bool perfectIfetch = false;    ///< one-cycle ifetch, no cache use
    bool watchdog = false;         ///< livelock watchdog enabled
};

class Processor;

/**
 * A recorded operation stream being replayed through a Processor: the
 * flat cursor-over-trace state machine that replaces the coroutine in
 * ExecutionMode::Replay. advance() issues exactly one suspending
 * operation (work, memory op, or barrier) via the replay* methods —
 * handling zero-cost ops like setFootprint inline — and returns false
 * once the stream is exhausted.
 */
class ReplaySource
{
  public:
    virtual ~ReplaySource() = default;
    virtual bool advance(Processor &p) = 0;
};

class Processor
{
  public:
    Processor(Node &node, const ProcessorConfig &cfg,
              stats::Group *stats_parent);

    // --------------------------------------------------------------
    // Thread control (driven by Machine)
    // --------------------------------------------------------------

    /** Install and start the thread's main coroutine. */
    void runThread(Task<void> t);

    /**
     * Replay mode: drive this processor from a recorded op stream
     * instead of a coroutine. The trap, watchdog, and cycle-charging
     * machinery is shared with direct execution — the cursor merely
     * replaces the coroutine as the source of the next operation —
     * so replay timing is identical by construction. @p src must
     * outlive the run.
     */
    void runReplay(ReplaySource *src);

    /**
     * Set the instruction footprint (cache blocks) fetched during
     * subsequent work() segments. Apps change this per program phase.
     */
    void setFootprint(std::vector<Addr> blocks);

    // --------------------------------------------------------------
    // Awaitables (used through the Mem API)
    // --------------------------------------------------------------

    struct WorkAwaitable
    {
        Processor &proc;
        Cycles n;

        bool await_ready() const noexcept { return n == 0; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            proc.startWork(n, h);
        }

        void await_resume() const noexcept {}
    };

    struct MemAwaitable
    {
        Processor &proc;
        MemOpType type;
        Addr addr;
        Word operand;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            proc.startMemOp(type, addr, operand, h);
        }

        Word await_resume() const noexcept { return proc.lastValue; }
    };

    WorkAwaitable work(Cycles n) { return {*this, n}; }

    MemAwaitable
    memOp(MemOpType t, Addr a, Word operand)
    {
        return {*this, t, a, operand};
    }

    // --------------------------------------------------------------
    // Called by the node / controllers
    // --------------------------------------------------------------

    /** Queue a software-extension trap (from the home controller). */
    void raiseTrap(const TrapItem &item);

    /** The cache controller finished the outstanding memory op. */
    void completeMemOp(Word value);

    /**
     * Resume a suspended user coroutine after @p delay cycles,
     * respecting handler preemption (used by the machine's fast
     * barrier).
     */
    void
    resumeAfter(std::coroutine_handle<> h, Cycles delay)
    {
        startWork(delay ? delay : 1, h);
    }

    Node &node() { return _node; }

    // --------------------------------------------------------------
    // Replay issue surface (called by ReplaySource::advance)
    // --------------------------------------------------------------

    /** Issue a recorded work segment (n > 0). */
    void replayWork(Cycles n) { startWork(n, std::noop_coroutine()); }

    /** Issue a recorded memory operation. */
    void
    replayMemOp(MemOpType t, Addr a, Word operand)
    {
        startMemOp(t, a, operand, std::noop_coroutine());
    }

    /** Arrive at the machine's fast barrier. */
    void replayBarrier();

    /**
     * Replay fast path: when called during a synchronous replay
     * advance and no pending event precedes curTick + delay, advance
     * the clock to that tick and return true — the caller then runs
     * the completion body directly instead of scheduling it. A pure
     * scheduling transformation: the same code executes at the same
     * tick, only the queue round-trip is skipped, so cycle counts are
     * bit-identical. Disabled under a deadline (the run loop checks
     * the deadline between events, which a multi-op jump could skip).
     */
    bool replayBatchWindow(Cycles delay);

    // --------------------------------------------------------------
    // Statistics
    // --------------------------------------------------------------
    stats::Group statsGroup;
    stats::Scalar userCycles;       ///< cycles executing user compute
    stats::Scalar handlerCycles;    ///< cycles stolen by handlers
    stats::Scalar trapsRun;         ///< software traps executed
    stats::Scalar memOps;           ///< memory operations issued
    stats::Scalar ifetchPenalty;    ///< cycles lost to ifetch misses
    stats::Scalar watchdogFirings;  ///< livelock watchdog activations
    stats::Scalar memStallCycles;   ///< cycles blocked on memory ops

  private:
    void startWork(Cycles n, std::coroutine_handle<> h);
    void startMemOp(MemOpType t, Addr a, Word operand,
                    std::coroutine_handle<> h);
    void startNextHandler();
    void tryRunUser();
    void onThreadStart();
    void onWorkDone();
    void onWatchdogExpire();
    void onHandlerDone();
    void preemptWork();
    void resumeUser(std::coroutine_handle<> h);
    void advanceReplay();
    Cycles instrFetchPenalty();

    Node &_node;
    ProcessorConfig cfg;

    Task<void> mainTask;
    bool finished = false;

    // Replay drive state (null/false in Direct and Record modes).
    ReplaySource *replaySrc = nullptr;
    bool replayAdvancing = false;  ///< inside an advanceReplay frame
    bool replayOpDone = false;     ///< last issued op batch-completed
    bool replayBatchOk = false;    ///< batching allowed (no deadline)

    // Trap/handler machinery
    std::deque<TrapItem> trapQueue;
    bool handlerActive = false;
    bool watchdogActive = false;
    unsigned handlersSinceUser = 0;

    // User compute state
    std::coroutine_handle<> workCont = nullptr;
    Cycles workRemaining = 0;
    bool userComputing = false;
    Tick workStart = 0;

    // Deferred memory-op resume (completion during a handler)
    std::coroutine_handle<> memCont = nullptr;
    bool memResumeReady = false;
    Tick memIssueTick = 0;

    // Instruction stream
    std::vector<Addr> footprint;

    // Statically-owned events: scheduling them never allocates, and
    // preemption cancels via deschedule instead of the old
    // epoch-guarded stale firings.
    MemberEvent<&Processor::onThreadStart> startEvent{
        *this, EventPrio::Processor};
    MemberEvent<&Processor::onWorkDone> workDoneEvent{
        *this, EventPrio::Processor};
    MemberEvent<&Processor::onWatchdogExpire> watchdogEvent{
        *this, EventPrio::Processor};
    MemberEvent<&Processor::onHandlerDone> handlerDoneEvent{
        *this, EventPrio::Processor};

  public:
    /** Result slot for the most recent memory operation. */
    Word lastValue = 0;
};

} // namespace swex

#endif // SWEX_MACHINE_PROCESSOR_HH
