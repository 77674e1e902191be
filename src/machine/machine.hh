/**
 * @file
 * The complete simulated multiprocessor: nodes, mesh network, global
 * address-space layout, program driving, verification hooks, and
 * statistics. This is the top-level object benchmark harnesses and
 * examples construct.
 */

#ifndef SWEX_MACHINE_MACHINE_HH
#define SWEX_MACHINE_MACHINE_HH

#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

#include "base/stats.hh"
#include "core/cost_model.hh"
#include "core/protocol.hh"
#include "core/sharing_tracker.hh"
#include "machine/coherence.hh"
#include "machine/node.hh"
#include "net/network.hh"
#include "sim/event_queue.hh"
#include "sim/task.hh"

namespace swex
{

class CoherenceAuditor;
class Mem;
class ReplaySource;
class TraceRecorder;

/**
 * How the machine sources each thread's operation stream.
 *  - Direct: coroutine app threads (the historical path).
 *  - Record: coroutine app threads, with the Mem API mirroring every
 *    operation into a TraceRecorder. Strictly passive — simulated
 *    results are bit-identical to Direct.
 *  - Replay: flat cursors over a recorded trace drive the processors
 *    (runReplay); no coroutine frames, no app host compute, and no
 *    recorder.
 */
enum class ExecutionMode
{
    Direct,
    Record,
    Replay,
};

constexpr std::uint64_t segBytes = 4ull << 20;   ///< memory per node
constexpr Tick maxTicks = 4'000'000'000ull;      ///< runaway guard

/** Where each node's heap starts in its segment: past the 64 KB
 *  instruction region and 8 more blocks, so early allocations do not
 *  map onto the cache sets instruction footprints occupy. */
constexpr std::uint64_t heapBase = 64 * 1024 + 8 * blockBytes;

/** Fast-barrier cost in cycles (see Machine::hwBarrier). */
constexpr Cycles barrierLatency = 64;

/** What an experiment varies; every other machine parameter is a
 *  constant beside the layer that reads it. */
struct MachineConfig
{
    int numNodes = 16;

    ExecutionMode executionMode = ExecutionMode::Direct;

    /** Which machine model carries coherence. */
    MachineModel machineModel = MachineModel::Directory;

    /** Snooping protocol + bus discipline (MachineModel::Snoop only). */
    SnoopProtocol snoopProtocol = SnoopProtocol::Mesi;
    BusArbitration busArbitration = BusArbitration::Fifo;

    ProtocolConfig protocol;
    HandlerProfile profile = HandlerProfile::FlexibleC;
    bool parallelInv = false;       ///< Section 7 enhancement

    /** Auditor-validation bug injection, per machine (never process
     *  state). */
    ProtocolMutation mutation = ProtocolMutation::None;

    NetworkConfig net;
    unsigned victimEntries = 0;     ///< 0 disables the victim cache

    bool perfectIfetch = false;     ///< simulator-only option (Fig. 3)
    bool trackSharing = false;      ///< exact worker-set measurement

    std::uint64_t seed = 12345;

    /**
     * Per-run simulated-cycle deadline; 0 runs against maxTicks. A
     * run that passes its deadline or deadlocks is abandoned: run()
     * returns and reports RunStatus::DeadlineExceeded or Deadlocked,
     * so sweep drivers record the failure and keep going.
     */
    Tick deadline = 0;
};

class Machine
{
  public:
    explicit Machine(const MachineConfig &cfg);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    const MachineConfig &config() const { return cfg; }
    int numNodes() const { return cfg.numNodes; }
    Tick now() const { return eventq.curTick(); }

    // ---- address space ----------------------------------------------

    NodeId
    homeOf(Addr a) const
    {
        return static_cast<NodeId>(a / segBytes);
    }

    Addr
    nodeBase(NodeId n) const
    {
        return static_cast<Addr>(n) * segBytes;
    }

    /** Cache set index an address maps to (for layout control). */
    unsigned cacheIndexOf(Addr a) const;

    /** Bump-allocate @p bytes of shared memory homed at node @p n. */
    Addr allocOn(NodeId n, std::uint64_t bytes,
                 std::uint64_t align = 8);

    /**
     * Allocate so the first byte maps to cache set @p cache_index
     * (used to construct the instruction/data thrashing layouts the
     * paper observed in TSP).
     */
    Addr allocAtIndex(NodeId n, std::uint64_t bytes,
                      unsigned cache_index);

    /** Base of the node's reserved instruction region. */
    Addr instrBase(NodeId n) const;

    // ---- program driving --------------------------------------------

    using ThreadFn = std::function<Task<void>(Mem &, int)>;

    /** How the last run() ended. */
    enum class RunStatus
    {
        Completed,         ///< every thread finished and queue drained
        DeadlineExceeded,  ///< the deadline (or maxTicks) elapsed
        Deadlocked,        ///< threads blocked with an empty queue
    };

    /**
     * Run one thread per node (or @p num_threads threads on nodes
     * 0..num_threads-1) to completion -- or until the run deadlocks
     * or its deadline (cfg.deadline, else maxTicks) expires, in which
     * case the program is abandoned in place (suspended coroutines
     * and pending events are reclaimed safely at machine destruction)
     * and runStatus() reports how the run ended.
     * @return elapsed cycles
     */
    Tick run(const ThreadFn &fn, int num_threads = -1);

    /**
     * Replay a recorded program: one ReplaySource cursor per thread,
     * driving nodes 0..n-1. The app's setup() must have run first
     * (replay reproduces the op streams, not the initial image).
     * Deadline and drain semantics match run().
     * @return elapsed cycles
     */
    Tick runReplay(const std::vector<ReplaySource *> &threads);

    /** The op-stream recorder (non-null only when executionMode is
     *  Record). */
    TraceRecorder *recorder() { return _recorder.get(); }
    const TraceRecorder *recorder() const { return _recorder.get(); }

    /** Outcome of the most recent run(). */
    RunStatus runStatus() const { return _runStatus; }

    /** Last tick at which a processor made forward progress. */
    Tick lastProgressTick() const { return _lastProgress; }

    /** Processors report forward progress (memory op completions). */
    void noteProgress() { _lastProgress = eventq.curTick(); }

    /** A thread's main coroutine completed (called by processors). */
    void
    threadFinished()
    {
        --running;
        noteProgress();
    }

    // ---- fast barrier --------------------------------------------------

    /**
     * Hardware-assisted barrier across all live threads, modeling
     * Alewife's fast barrier facility (paper Section 7). Costs
     * barrierLatency cycles but generates no coherence traffic; used
     * by controlled experiments (WORKER) to isolate worker-set
     * behavior. Every live thread must participate.
     */
    struct BarrierAwaitable
    {
        Machine &m;
        int node;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            m.barrierArrive(node, h);
        }

        void await_resume() const noexcept {}
    };

    BarrierAwaitable hwBarrier(int node) { return {*this, node}; }

    // ---- verification -------------------------------------------------

    /**
     * Read the coherent value of a word (dirty cached copy if one
     * exists, else home memory). Debug/verification only; does not
     * perturb the simulation.
     */
    Word debugRead(Addr a) const;

    /** Debug write backdoor (test setup only). */
    void debugWrite(Addr a, Word v);

    /**
     * The quiescent sweep (CoherenceAuditor::checkQuiescent) plus the
     * machine model's and the delivery layer's quiescence checks, all
     * reported to the attached auditor, or, when none is attached, to
     * a fresh Panic-mode auditor that sees every node but hooks
     * nothing. Every completed run() ends with it; call it only at
     * quiescence.
     */
    void checkInvariants() const;

    /**
     * Attach a CoherenceAuditor: registers every node with it and
     * hooks it into every home controller and the bus, so it checks
     * each transition and collects what each run's quiescent sweep
     * finds. The auditor is observation-only (no simulated cycles);
     * it must outlive the machine or be detached with
     * attachAuditor(nullptr).
     */
    void attachAuditor(CoherenceAuditor *a);

    /**
     * Order-independent hash of the coherent memory image: every
     * all-zero block hashes to nothing, every other block contributes
     * its address and coherent contents (dirty cached copy if one
     * exists, else home memory). Two runs that computed the same
     * final data — whatever the interleaving — produce equal hashes.
     * Call at quiescence.
     */
    std::uint64_t imageHash() const;

    // ---- statistics ----------------------------------------------------

    /** Write the statistics tree as one JSON object (the `stats`
     *  member of a run record). */
    void dumpStats(std::ostream &os) const;

    /** Aggregate a named per-node scalar stat over all nodes. */
    double sumStat(const std::string &path) const;

    EventQueue eventq;

  private:
    /**
     * Memory handles lent to app threads. Declared before the nodes
     * so they outlive the processors' coroutine frames: an abandoned
     * (deadline-cut) run leaves suspended frames holding Mem
     * references that are only released when the nodes are torn down.
     */
    std::vector<std::unique_ptr<Mem>> _memHandles;

  public:
    stats::Group root;
    MeshNetwork network;
    SharingTracker tracker;

    /**
     * The machine model (directory stack or snooping bus). Declared
     * before the nodes: every Node's coherence engine is built by and
     * may reference it, so it must outlive them.
     */
    std::unique_ptr<CoherenceBackend> backend;
    std::vector<std::unique_ptr<Node>> nodes;

    /**
     * One thread's arrival at the fast barrier. Internal to the
     * BarrierAwaitable and the replay drive path (which arrives with
     * a sentinel handle); applications use hwBarrier().
     */
    void barrierArrive(int node, std::coroutine_handle<> h);

  private:
    /** The shared event loop + drain behind run() and runReplay(). */
    Tick runMainLoop(Tick start);

    /** Register every node and the address map with @p a. */
    void registerNodes(CoherenceAuditor &a) const;

    MachineConfig cfg;
    std::unique_ptr<TraceRecorder> _recorder;
    CoherenceAuditor *_auditor = nullptr;
    RunStatus _runStatus = RunStatus::Completed;
    Tick _lastProgress = 0;
    std::vector<std::uint64_t> heapPtr;   ///< per-node bump pointers
    int running = 0;
    std::vector<std::pair<int, std::coroutine_handle<>>> barrierWaiters;
};

} // namespace swex

#endif // SWEX_MACHINE_MACHINE_HH
