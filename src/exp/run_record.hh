/**
 * @file
 * The structured result of one experiment run, and the "swex-run-v1"
 * JSON document that carries a sequence of them. Every bench and
 * swex_cli emit these records, so downstream tooling scripts against
 * one schema instead of scraping per-bench tables.
 */

#ifndef SWEX_EXP_RUN_RECORD_HH
#define SWEX_EXP_RUN_RECORD_HH

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "base/types.hh"

namespace swex
{

/** Everything measured from one simulation run. */
struct RunRecord
{
    std::string id;           ///< spec identifier
    std::string app;          ///< registry name
    std::string protocol;     ///< ProtocolConfig::name() / snoop family
    /** Machine model: "directory" (the historical stack) or "snoop". */
    std::string machineModel = "directory";
    int nodes = 0;
    bool sequential = false;  ///< sequential reference run?

    /** How the op stream was sourced: "direct", "record", "replay". */
    std::string execMode = "direct";

    Tick simCycles = 0;       ///< elapsed simulated cycles
    bool verified = false;    ///< app self-check passed

    /**
     * How the run ended: "ok", "deadline" (the simulated-cycle
     * deadline expired mid-run), or "deadlock" (threads blocked with
     * an empty event queue). Failure records carry the last tick at
     * which a processor made progress and, when an auditor was
     * attached, a summary of the stalled directory transactions.
     */
    std::string status = "ok";
    Tick lastProgress = 0;    ///< last forward-progress tick (failures)
    std::string stallSummary; ///< stalled transactions (failures)

    bool failed() const { return status != "ok"; }

    // Fault-injection reproduction parameters (echoed so a failure
    // record alone suffices to replay the run).
    unsigned faultDrop = 0;        ///< drop rate, per mille
    unsigned faultDup = 0;         ///< duplication rate, per mille
    unsigned faultBlackout = 0;    ///< blackout rate, per mille
    std::uint64_t faultSeed = 0;   ///< fault stream seed
    Tick deadline = 0;             ///< deadline in force (0 = none)

    /** Machine::imageHash() at quiescence: an order-independent
     *  digest of the coherent memory image, the sweep tier's
     *  bit-identity witness across --jobs levels. */
    std::uint64_t imageHash = 0;

    // Aggregate memory-system statistics.
    double trapsRaised = 0;
    double handlerCycles = 0;
    double messages = 0;
    double readHandlerMean = 0;
    std::uint64_t readHandlerCount = 0;
    double writeHandlerMean = 0;
    std::uint64_t writeHandlerCount = 0;

    // Host-side cost of the simulation itself.
    double hostWallSeconds = 0;
    double hostEvents = 0;

    // Coherence auditor results (when the spec enabled it).
    bool audited = false;
    std::uint64_t auditTransitions = 0;   ///< transitions checked
    std::uint64_t auditViolations = 0;    ///< invariant violations

    // Filled by the caller when a sequential reference pairs with
    // this parallel run.
    double seqCycles = 0;
    double speedup = 0;

    /** Worker-set size histogram (index = set size); trackSharing. */
    std::vector<std::uint64_t> workerSets;

    /** Full statistics tree, as Group::renderJson emits it. */
    std::string statsJson;

    double
    eventsPerSec() const
    {
        return hostWallSeconds > 0 ? hostEvents / hostWallSeconds : 0;
    }

    double
    simCyclesPerSec() const
    {
        return hostWallSeconds > 0
                   ? static_cast<double>(simCycles) / hostWallSeconds
                   : 0;
    }

    /**
     * Write this record as one JSON object. @p canonical suppresses
     * the host-clock-derived fields (wall seconds and the rates
     * computed from them) that differ between otherwise identical
     * runs, so canonical documents from the same spec list are
     * byte-identical whatever host, run, or --jobs level produced
     * them. Deterministic host fields (the event count) stay.
     */
    void writeJson(std::ostream &os, bool canonical = false) const;

    /** Append the writeJson() bytes to @p out, so a caller that
     *  frames the record (a serve response line) renders it in place
     *  instead of copying it out of a stream. */
    void appendJson(std::string &out, bool canonical = false) const;
};

/**
 * An append-only collection of run records that serializes as a
 * "swex-run-v1" document:
 *
 *   {"schema":"swex-run-v1","records":[ {...}, ... ]}
 */
class RunLog
{
  public:
    static constexpr const char *schema = "swex-run-v1";

    /** Environment variable naming the output path for writeEnv(). */
    static constexpr const char *envVar = "SWEX_RUN_JSON";

    /** Set to make every serialization canonical (see
     *  RunRecord::writeJson): swex_cli's --json and $SWEX_RUN_JSON
     *  documents and the server's records. */
    static constexpr const char *canonicalEnvVar = "SWEX_RUN_CANONICAL";

    /** Whether $SWEX_RUN_CANONICAL asks for canonical documents: it
     *  is set to a non-empty value (an empty value counts as unset,
     *  as for $SWEX_RUN_JSON). */
    static bool canonicalRequested();

    RunRecord &add(RunRecord record);

    const std::deque<RunRecord> &records() const { return _records; }
    bool empty() const { return _records.empty(); }

    void writeJson(std::ostream &os, bool canonical = false) const;

    /** Write the document to @p path; true on success. */
    bool writeFile(const std::string &path, bool canonical = false) const;

    /**
     * Write to the path named by $SWEX_RUN_JSON, if set (canonical
     * when canonicalRequested()). Returns false only on
     * an actual write failure (unset env is success: the caller
     * asked for records only when the environment does).
     */
    bool writeEnv() const;

  private:
    std::deque<RunRecord> _records;   ///< deque: stable references
};

} // namespace swex

#endif // SWEX_EXP_RUN_RECORD_HH
