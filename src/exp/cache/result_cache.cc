#include "exp/cache/result_cache.hh"

#include <sys/stat.h>
#include <sys/types.h>

#include <cstdio>
#include <cstdlib>

#include "base/binary_io.hh"
#include "exp/cache/record_io.hh"
#include "exp/runner.hh"
#include "trace/trace_format.hh"

namespace swex
{
namespace cache
{

namespace
{

/** Length-prefixed string mix, so ("ab","c") != ("a","bc"). */
std::uint64_t
mixStr(std::uint64_t h, const std::string &s)
{
    return bin::fnv1a(bin::fnv1aU64(h, s.size()), s.data(), s.size());
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** mkdir -p: create every missing component of @p dir. Failure is
 *  not fatal here — the first store() reports it with context. */
void
makeDirs(const std::string &dir)
{
    std::string partial;
    for (std::size_t i = 0; i <= dir.size(); ++i) {
        if (i < dir.size() && dir[i] != '/') {
            partial.push_back(dir[i]);
            continue;
        }
        if (!partial.empty())
            ::mkdir(partial.c_str(), 0777);
        if (i < dir.size())
            partial.push_back('/');
    }
}

/** Sanitize an app name for use in a file name (registry names are
 *  already clean identifiers; this is belt-and-braces). */
std::string
fileSafe(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '-' || c == '_';
        out.push_back(ok ? c : '_');
    }
    return out.empty() ? std::string("app") : out;
}

} // anonymous namespace

ResultCache::ResultCache(std::string dir, CodeVersions versions)
    : _dir(std::move(dir)), _versions(versions)
{
    makeDirs(_dir);
}

std::uint64_t
ResultCache::specKey(const ExperimentSpec &spec)
{
    // The machine-config fingerprint already canonicalizes every
    // timing-relevant knob (nodes, protocol spectrum point, profile,
    // latencies, victim cache, seeds, jitter, faults, deadline,
    // mutation, machine model) — and machineFor() applies the
    // sequential-baseline override, so a sequential cell keys on the
    // 1-node machine it actually runs. On top of that, mix the
    // identity fields the record carries verbatim but the machine
    // fingerprint does not cover. Execution strategy (execMode,
    // traceDir) stays out: replay is bit-identical to direct
    // execution, so it is not part of the experiment's identity.
    std::uint64_t h = bin::fnvOffset;
    h = bin::fnv1aU64(h,
                      trace::configFingerprint(Runner::machineFor(spec)));
    h = mixStr(h, spec.id);
    h = mixStr(h, spec.app);
    h = mixStr(h, trace::canonicalAppParams(spec.params));
    h = bin::fnv1aU64(h, spec.sequential ? 1 : 0);
    h = bin::fnv1aU64(h, spec.audit ? 1 : 0);
    // trackSharing changes the record (workerSets) without changing
    // timing, so configFingerprint deliberately ignores it — the
    // cache must not.
    h = bin::fnv1aU64(h, spec.trackSharing ? 1 : 0);
    return h;
}

std::string
ResultCache::entryPath(const ExperimentSpec &spec) const
{
    // Addressed by spec key alone; the code fingerprint lives in the
    // entry header. A component bump therefore finds the old file,
    // reads it as Stale (counted, deleted), and the recompute's store
    // replaces it in place — one entry per cell, never an
    // ever-growing sibling per code version.
    return _dir + "/" + fileSafe(spec.app) + "-" +
           hex16(specKey(spec)) + ".swexrec";
}

bool
ResultCache::contains(const ExperimentSpec &spec) const
{
    struct stat st;
    return ::stat(entryPath(spec).c_str(), &st) == 0;
}

bool
ResultCache::lookup(const ExperimentSpec &spec, RunRecord &out) const
{
    const std::string path = entryPath(spec);
    std::string err;
    switch (loadRecord(path, out, specKey(spec),
                       codeFingerprint(spec, _versions), err)) {
      case LoadStatus::Ok:
        _hits.fetch_add(1, std::memory_order_relaxed);
        return true;
      case LoadStatus::Missing:
        break;
      case LoadStatus::Corrupt:
        // Delete so the recompute's store replaces it; if the unlink
        // races another worker's replacement store, rename(2) already
        // made that replacement complete, and losing it only costs
        // one recompute.
        _corrupt.fetch_add(1, std::memory_order_relaxed);
        std::remove(path.c_str());
        break;
      case LoadStatus::Stale:
        _stale.fetch_add(1, std::memory_order_relaxed);
        std::remove(path.c_str());
        break;
    }
    _misses.fetch_add(1, std::memory_order_relaxed);
    return false;
}

bool
ResultCache::store(const ExperimentSpec &spec, const RunRecord &record,
                   std::string &err) const
{
    if (!saveRecord(entryPath(spec), record, specKey(spec),
                    codeFingerprint(spec, _versions), err)) {
        _storeFailures.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    _stores.fetch_add(1, std::memory_order_relaxed);
    return true;
}

ResultCache::Counters
ResultCache::counters() const
{
    Counters c;
    c.hits = _hits.load(std::memory_order_relaxed);
    c.misses = _misses.load(std::memory_order_relaxed);
    c.stores = _stores.load(std::memory_order_relaxed);
    c.corrupt = _corrupt.load(std::memory_order_relaxed);
    c.stale = _stale.load(std::memory_order_relaxed);
    c.storeFailures = _storeFailures.load(std::memory_order_relaxed);
    return c;
}

std::string
resolveCacheDir(const std::string &explicit_dir)
{
    if (!explicit_dir.empty())
        return explicit_dir;
    const char *env = std::getenv("SWEX_RESULT_CACHE");
    return env != nullptr ? std::string(env) : std::string();
}

} // namespace cache
} // namespace swex
