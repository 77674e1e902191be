/**
 * @file
 * One experiment cell executed step by step, the way Runner::execute
 * does it, with a span around each call into a simulator module: app
 * construction, machine construction, app set-up, the run, the app's
 * own verification, the invariant check and image hash, the statistics
 * dump, trace save/load, and machine teardown. The traced benchmark run
 * uses these in place of Runner::runAll / runAllReplay and checks that
 * every decomposed cell lands on the same simulated cycles and memory
 * image as the runner's record.
 */

#ifndef PERFBENCH_CELLS_HH
#define PERFBENCH_CELLS_HH

#include <cstdint>
#include <string>

#include "exp/spec.hh"

namespace perfbench
{

struct CellOutcome
{
    bool completed = false;
    bool verified = false;
    swex::Tick simCycles = 0;
    std::uint64_t image = 0;
    int nodes = 0;            ///< machine nodes (1 for a sequential run)
    bool sequential = false;

    std::uint64_t auditTransitions = 0;
    std::uint64_t auditViolations = 0;

    // Simulated counters, as Runner::execute reads them.
    double events = 0;
    double traps = 0;
    double handlerCycles = 0;
    double messages = 0;
    double readHandlerSum = 0;
    std::uint64_t readHandlerCount = 0;
    double writeHandlerSum = 0;
    std::uint64_t writeHandlerCount = 0;
    double retransmits = 0;
    double dupsSuppressed = 0;
    double busTransactions = 0;

    double runSeconds = 0;      ///< host time inside Machine::run*
    std::uint64_t traceBytes = 0;   ///< portable trace written (record)
    std::string error;          ///< trace failures; empty when none
};

/** A Direct-mode cell (spec.execMode is ignored). */
CellOutcome runCellSteps(const swex::ExperimentSpec &spec);

/** A Record-mode cell: run directly with the op-stream recorder on,
 *  then save the exact-config and (portable apps) portable traces under
 *  @p trace_dir, as Runner::execute does for ExecutionMode::Record. */
CellOutcome recordCellSteps(const swex::ExperimentSpec &spec,
                            const std::string &trace_dir);

/** A Replay-mode cell driven by the trace cached under @p trace_dir,
 *  verified against the recorded image, re-recording its own
 *  exact-config trace afterwards, as Runner::execute does. */
CellOutcome replayCellSteps(const swex::ExperimentSpec &spec,
                            const std::string &trace_dir);

} // namespace perfbench

#endif // PERFBENCH_CELLS_HH
