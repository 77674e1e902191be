/**
 * @file
 * Declarative description of one experiment: which application, on
 * which machine, under which protocol and hardware features. Benches
 * and swex_cli are tables of these; the Runner is the only code that
 * turns a spec into a Machine and a run.
 */

#ifndef SWEX_EXP_SPEC_HH
#define SWEX_EXP_SPEC_HH

#include <cstdint>
#include <string>

#include "apps/registry.hh"
#include "core/protocol.hh"
#include "machine/machine.hh"

namespace swex
{

/**
 * One point in an experiment design. An aggregate, so spec tables
 * can use designated initializers:
 *
 *   ExperimentSpec{.id = "fig4/TSP/h5",
 *                  .app = "tsp",
 *                  .protocol = ProtocolConfig::hw(5),
 *                  .nodes = 64,
 *                  .victimEntries = 6};
 *
 * Every field has a default member initializer (`{}` where the type's
 * default is wanted), so such a table may omit any field without a
 * -Wmissing-field-initializers warning.
 */
struct ExperimentSpec
{
    /** Record identifier, e.g. "fig2/worker16/H5". */
    std::string id{};

    /** Registry name of the application ("worker", "tsp", ...). */
    std::string app = "worker";

    /** App-specific parameters, parsed by the registry factory. */
    AppParams params{};

    ProtocolConfig protocol = ProtocolConfig::hw(5);
    int nodes = 16;

    /**
     * Which machine model carries coherence. Directory (default) uses
     * `protocol`; Snoop uses `snoopProtocol` + `busArbitration` and
     * ignores the directory spectrum point.
     */
    MachineModel machineModel = MachineModel::Directory;
    SnoopProtocol snoopProtocol = SnoopProtocol::Mesi;
    BusArbitration busArbitration = BusArbitration::Fifo;

    unsigned victimEntries = 0;     ///< victim cache size (0 = off)
    bool perfectIfetch = false;     ///< simulator-only option (Fig. 3)
    bool parallelInv = false;       ///< Section 7 enhancement
    bool trackSharing = false;      ///< exact worker-set measurement
    HandlerProfile profile = HandlerProfile::FlexibleC;
    std::uint64_t seed = 12345;

    /** Attach a CoherenceAuditor to the run (observation-only: the
     *  simulated cycle counts are identical with it on or off). */
    bool audit = false;

    /**
     * Run the app's sequential reference instead of its parallel
     * kernel: a 1-node full-map machine with victim caching, the
     * paper's "without multiprocessor overhead" speedup baseline.
     * (The app factory still sees spec.nodes, because apps precompute
     * ground truth for the parallel thread count.)
     */
    bool sequential = false;

    /** Auditor-validation bug injection, threaded down per machine. */
    ProtocolMutation mutation = ProtocolMutation::None;

    /** Network jitter stressor: max extra delivery delay in cycles
     *  (0 = quiet mesh timing). */
    Cycles jitterMax = 0;

    /** Seed for the jitter stream; 0 reuses the run seed. */
    std::uint64_t jitterSeed = 0;

    /** Adversarial fault injection, per-mille per wire transmission
     *  (all-zero = fault layer never constructed, clean path exact). */
    unsigned faultDropPerMille = 0;
    unsigned faultDupPerMille = 0;
    unsigned faultBlackoutPerMille = 0;

    /** Seed for the fault stream; 0 reuses the run seed. */
    std::uint64_t faultSeed = 0;

    /** Simulated-cycle deadline; 0 runs against maxTicks. A run past
     *  it ends as a "deadline" record. */
    Tick deadline = 0;

    /**
     * How the runner sources the op stream: Direct (coroutine app
     * threads), Record (direct plus trace capture), or Replay (drive
     * the processors from a cached trace — no coroutine frames, and
     * no trace written back). Record and Replay resolve the trace
     * cache via traceDir.
     */
    ExecutionMode execMode = ExecutionMode::Direct;

    /** Trace cache directory; "" falls back to $SWEX_TRACE_CACHE. */
    std::string traceDir{};

    /** The machine configuration this spec describes. */
    MachineConfig
    machine() const
    {
        MachineConfig mc;
        mc.numNodes = nodes;
        mc.machineModel = machineModel;
        mc.snoopProtocol = snoopProtocol;
        mc.busArbitration = busArbitration;
        mc.protocol = protocol;
        mc.profile = profile;
        mc.parallelInv = parallelInv;
        mc.perfectIfetch = perfectIfetch;
        mc.trackSharing = trackSharing;
        mc.victimEntries = victimEntries;
        mc.seed = seed;
        mc.mutation = mutation;
        mc.net.jitterMax = jitterMax;
        mc.net.jitterSeed = jitterSeed != 0 ? jitterSeed : seed;
        mc.net.faults.dropPerMille = faultDropPerMille;
        mc.net.faults.dupPerMille = faultDupPerMille;
        mc.net.faults.blackoutPerMille = faultBlackoutPerMille;
        mc.net.faults.seed = faultSeed != 0 ? faultSeed : seed;
        mc.deadline = deadline;
        return mc;
    }

    /** Whether any fault rate is set. */
    bool
    faultsOn() const
    {
        return faultDropPerMille != 0 || faultDupPerMille != 0 ||
               faultBlackoutPerMille != 0;
    }
};

} // namespace swex

#endif // SWEX_EXP_SPEC_HH
