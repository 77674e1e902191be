/**
 * @file
 * The single build-run-verify-measure loop behind every bench and
 * swex_cli. A Runner takes declarative ExperimentSpecs, constructs
 * the app (through the AppRegistry) and the machine, runs the kernel,
 * verifies the result, checks coherence invariants, and returns a
 * structured RunRecord; every record is also collected into a RunLog
 * that serializes as a "swex-run-v1" document.
 *
 * Independent specs can execute concurrently: runAll() farms a spec
 * list over a host thread pool (exp/pool.hh) — every run is confined
 * to one Machine on one thread, with no process-global simulator
 * state — and merges the records into the log in spec order, so the
 * emitted document is bit-identical at any --jobs level.
 */

#ifndef SWEX_EXP_RUNNER_HH
#define SWEX_EXP_RUNNER_HH

#include <string>
#include <vector>

#include "exp/run_record.hh"
#include "exp/spec.hh"
#include "trace/trace_format.hh"

namespace swex
{

namespace cache
{
class ResultCache;
} // namespace cache

class Runner
{
  public:
    /**
     * @param fail_fast fatal() as soon as an app fails its own
     * verification (benches want this; swex_cli reports instead).
     */
    explicit Runner(bool fail_fast = true) : failFast(fail_fast) {}

    /**
     * Run the app's parallel kernel per @p spec on a fresh machine.
     * The returned reference points into the runner's log and stays
     * valid for the runner's lifetime, so callers may annotate it
     * (e.g. fill in speedup once the sequential reference is known).
     */
    RunRecord &run(const ExperimentSpec &spec);

    /**
     * Run the app's sequential reference (spec.sequential = true):
     * a fresh instance of the same app on a 1-node full-map machine
     * with victim caching, the paper's "without multiprocessor
     * overhead" speedup baseline.
     */
    RunRecord &runSequential(const ExperimentSpec &spec);

    /**
     * Execute every spec, up to @p jobs at a time on host threads
     * (jobs <= 1 is a plain serial loop), then merge the records
     * into the log in spec order. Returns pointers into the log,
     * parallel to @p specs; they stay valid for the runner's
     * lifetime. With fail_fast, the first failing spec (in spec
     * order, not completion order) is reported after the whole
     * grid has drained, keeping diagnostics deterministic.
     */
    std::vector<RunRecord *> runAll(const std::vector<ExperimentSpec> &specs,
                                    unsigned jobs);

    /**
     * Execute one spec to a standalone record without touching the
     * log or enforcing fail-fast: probe(), and simulate() on a miss.
     * Thread-safe: concurrent calls on distinct specs share nothing
     * but the (locked) app registry.
     */
    RunRecord execute(const ExperimentSpec &spec) const;

    /**
     * The cache half of execute(): @return true with @p out filled
     * when the attached cache holds @p spec. False without a cache,
     * for a Record run (the caller asked for the trace side effect,
     * which a served record would skip), and on a miss, a corrupt or
     * stale entry included: the lookup deletes that entry, so
     * simulate()'s store replaces it. A hit or miss is decided by
     * this one lookup, never by a separate existence probe that
     * could race a concurrent store.
     */
    bool probe(const ExperimentSpec &spec, RunRecord &out) const;

    /**
     * The simulation half of execute(): run @p spec without probing
     * the cache, and store a storable result (direct, completed,
     * verified, violation-free) in the attached cache.
     */
    RunRecord simulate(const ExperimentSpec &spec) const;

    /**
     * Record-once, replay-everywhere sweep. Specs whose app the
     * registry declares trace-portable are partitioned by portable
     * trace key (app, params, nodes, sequential): the first cell of
     * each key records (or an already-cached portable trace is
     * reused), every other cell replays the cached trace through the
     * full simulated machine, so one recording drives every
     * protocol / latency / victim / seed cell without re-running the
     * app's host compute. Replay cells write no traces of their own.
     * Specs whose app is not portable run Direct, unchanged
     * (record+replay per cell would be pure overhead). Results merge
     * into the log in spec order, exactly like runAll(). A repeated
     * sweep re-simulates every cell; attach a result cache to serve
     * it from disk instead.
     */
    std::vector<RunRecord *> runAllReplay(
        const std::vector<ExperimentSpec> &specs, unsigned jobs,
        const std::string &trace_dir = "");

    /**
     * The machine configuration a spec actually runs on (applies the
     * sequential-baseline override and the execution mode).
     */
    static MachineConfig machineFor(const ExperimentSpec &spec);

    /**
     * Locate, load, and validate the trace a Replay of @p spec would
     * use: the exact config-bound trace first, then — only for apps
     * the registry declares trace-portable — a portable recording.
     * @return "" with @p out filled on success, else a structured
     * error (no trace directory, missing file, stale key, fingerprint
     * mismatch, corrupt trace). Never crashes on bad input.
     */
    static std::string findReplayTrace(const ExperimentSpec &spec,
                                       trace::Trace &out);

    /**
     * Consult @p cache (not owned; may be nullptr to detach) on every
     * execute(): a warm cell is served straight from disk — no app,
     * no machine, no simulation — and a direct-mode, completed,
     * verified, violation-free result is stored back. Cache misses
     * that recompute are indistinguishable from uncached runs, so a
     * sweep's emitted document is byte-identical with the cache on,
     * off, cold, or warm.
     */
    void attachCache(cache::ResultCache *cache) { _cache = cache; }

    RunLog &log() { return _log; }
    const RunLog &log() const { return _log; }

    /**
     * Emit the collected records to $SWEX_RUN_JSON if set. A write
     * failure is never silent: it is reported on stderr (even in
     * quiet mode) and returned as false so drivers can exit
     * non-zero.
     */
    bool emitRecords() const;

  private:
    /** fatal() if @p r failed verification or violated invariants
     *  and this runner is fail-fast. */
    void enforce(const RunRecord &r) const;

    bool failFast;
    cache::ResultCache *_cache = nullptr;
    RunLog _log;
};

} // namespace swex

#endif // SWEX_EXP_RUNNER_HH
