/**
 * @file
 * The content-addressed experiment cache: finished swex-run-v1
 * records, keyed on (canonical ExperimentSpec hash, code-version
 * fingerprint) and stored as swex-rec files (record_io.hh) under one
 * directory. A warm cell costs a file load instead of a simulation;
 * the Runner consults the cache before building a machine, so
 * re-sweeps after a code change only recompute the cells whose
 * fingerprint component was bumped (see code_version.hh).
 *
 * Key scheme:
 *  - spec key: FNV-1a over every result-affecting spec field — the
 *    machine-config fingerprint (which already canonicalizes nodes,
 *    protocol, profile, latencies, victim cache, seeds, jitter,
 *    faults, deadline, mutation, and the machine model) plus the
 *    record identity fields the document carries verbatim (id, app,
 *    canonical params, sequential, audit, trackSharing). Execution
 *    strategy (execMode / traceDir) is deliberately excluded: replay
 *    is bit-identical to direct execution, so the experiment's
 *    identity does not include how its op stream was sourced. This
 *    cache, not trace replay, is what makes a repeated sweep fast.
 *  - code fingerprint: per-component code versions + $SWEX_CACHE_EPOCH
 *    (code_version.hh). Wall-clock fields are stored but never keyed:
 *    they are measurement cost, not experiment identity.
 *
 * Only direct-mode, completed, verified, violation-free records are
 * stored, so a hit always serves bytes a direct run produced.
 * Lookups are thread-safe and O(one file); corrupt or stale entries
 * count as misses (and are deleted so the recompute's store replaces
 * them). The directory can be bounded (Budget): stores then evict
 * least-recently-used entries by mtime — hits touch their entry —
 * until the byte/entry budget holds. Hit/miss/store/invalidation/
 * eviction accounting is atomic, for the serving front end's stats
 * endpoint and the bench legs.
 */

#ifndef SWEX_EXP_CACHE_RESULT_CACHE_HH
#define SWEX_EXP_CACHE_RESULT_CACHE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "exp/cache/code_version.hh"
#include "exp/run_record.hh"
#include "exp/spec.hh"

namespace swex
{
namespace cache
{

class ResultCache
{
  public:
    /**
     * Size budget for the cache directory; the default (all zero) is
     * unbounded. When either bound is set, every store() is followed
     * by an LRU sweep: entries are evicted oldest-mtime-first until
     * the directory fits the budget again. Hits touch their entry's
     * mtime, so "oldest mtime" is "least recently used", not "least
     * recently stored". The newest entry is never evicted — a budget
     * smaller than one record still serves the cell just stored.
     */
    struct Budget
    {
        std::uint64_t maxBytes = 0;     ///< 0 = unbounded
        std::uint64_t maxEntries = 0;   ///< 0 = unbounded

        bool bounded() const { return maxBytes != 0 || maxEntries != 0; }
    };

    /** @p dir is created (mkdir -p) if missing. @p versions defaults
     *  to the build-derived component fingerprints + the env epoch;
     *  tests pass perturbed versions to exercise invalidation. The
     *  two-argument form is unbounded; pass a Budget to cap the
     *  directory. */
    explicit ResultCache(std::string dir,
                         CodeVersions versions = CodeVersions::current());
    ResultCache(std::string dir, CodeVersions versions, Budget budget);

    const std::string &dir() const { return _dir; }
    const CodeVersions &versions() const { return _versions; }
    const Budget &budget() const { return _budget; }

    /** Canonical hash of every result-affecting field of @p spec. */
    static std::uint64_t specKey(const ExperimentSpec &spec);

    /** The cache file this spec's record lives at (hit or not). */
    std::string entryPath(const ExperimentSpec &spec) const;

    /** Cheap warmth probe (file existence only — a corrupt entry
     *  still reads as present; lookup() sorts that out). */
    bool contains(const ExperimentSpec &spec) const;

    /**
     * Serve @p spec from the cache. @return true with @p out filled
     * (a hit); false on a miss — including a corrupt or
     * stale-fingerprint entry, which is deleted and counted under
     * corrupt()/stale() so the caller's recompute-and-store replaces
     * it.
     */
    bool lookup(const ExperimentSpec &spec, RunRecord &out) const;

    /**
     * Persist @p record for @p spec (atomic unique-temp + rename;
     * concurrent same-key stores are safe). The caller enforces the
     * storage policy (direct, ok, verified); store() only refuses
     * I/O failures. @return false with @p err set.
     */
    bool store(const ExperimentSpec &spec, const RunRecord &record,
               std::string &err) const;

    /** Accounting snapshot (monotonic since construction). */
    struct Counters
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;     ///< includes corrupt + stale
        std::uint64_t stores = 0;
        std::uint64_t corrupt = 0;    ///< checksum/format failures
        std::uint64_t stale = 0;      ///< code-fingerprint mismatches
        std::uint64_t evictions = 0;  ///< LRU budget enforcement
        std::uint64_t storeFailures = 0;
    };
    Counters counters() const;

  private:
    /**
     * Evict LRU-by-mtime entries until the directory fits the budget
     * (no-op when unbounded); construction and store() call it.
     * Serialized on an internal mutex; concurrent lookups of a file
     * being evicted read a plain miss and recompute.
     */
    void enforceBudget() const;

    std::string _dir;
    CodeVersions _versions;
    Budget _budget;

    mutable std::mutex _evictMutex;
    mutable std::atomic<std::uint64_t> _hits{0};
    mutable std::atomic<std::uint64_t> _misses{0};
    mutable std::atomic<std::uint64_t> _stores{0};
    mutable std::atomic<std::uint64_t> _corrupt{0};
    mutable std::atomic<std::uint64_t> _stale{0};
    mutable std::atomic<std::uint64_t> _evictions{0};
    mutable std::atomic<std::uint64_t> _storeFailures{0};
};

/** @p explicit_dir if nonempty, else $SWEX_RESULT_CACHE, else "". */
std::string resolveCacheDir(const std::string &explicit_dir);

} // namespace cache
} // namespace swex

#endif // SWEX_EXP_CACHE_RESULT_CACHE_HH
