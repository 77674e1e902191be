/**
 * @file
 * The code-version half of the experiment-cache key. A cached
 * swex-run-v1 record is only as good as the code that produced it, so
 * every cache entry is fingerprinted with a hash of each code
 * component that could change its bytes. The fingerprints are derived
 * automatically at build time (gen_code_fingerprint.cmake hashes each
 * component's sources into a generated translation unit), so touching
 * the directory protocol stack and rebuilding sends every directory
 * cell cold while the snooping-bus cells stay warm — exactly the
 * incremental re-sweep the cache exists for, with no hand-bumped
 * version constant anywhere.
 *
 * Components:
 *  - core: what every run shares: the event kernel, machine, node
 *    and processor timing, caches, network and delivery, the runtime;
 *    base (stats rendering, JSON number encoding, mix64); the auditor
 *    (transition counts, and the quiescent sweep every run ends
 *    with); and exp/runner.cc, which assembles the record.
 *  - apps: the workload kernels and the registry defaults.
 *  - directory: the software-extended directory stack (home
 *    controller, ext directory, handler cost model).
 *  - snoop: the snooping split-transaction-bus backend.
 *
 * A run's fingerprint mixes core + apps + the backend it actually
 * exercised; sequential references always run on the 1-node full-map
 * directory machine, so they key on the directory component.
 *
 * $SWEX_CACHE_EPOCH (a non-negative integer, default 0) is mixed into
 * every fingerprint as a run-time master switch: bumping it invalidates
 * the whole cache without recompiling, for when "which component
 * changed" is not worth reconstructing.
 */

#ifndef SWEX_EXP_CACHE_CODE_VERSION_HH
#define SWEX_EXP_CACHE_CODE_VERSION_HH

#include <cstdint>

namespace swex
{

struct ExperimentSpec;

namespace cache
{

/**
 * The build-time component fingerprints, emitted by
 * gen_code_fingerprint.cmake into a generated translation unit: a
 * 64-bit hash over each component's source files (sorted relative
 * path + content hash), recomputed whenever any of them changes.
 */
struct GeneratedFingerprints
{
    std::uint64_t core;
    std::uint64_t apps;
    std::uint64_t directory;
    std::uint64_t snoop;
};
const GeneratedFingerprints &generatedFingerprints();

/** Per-component code versions: normally the build-time source
 *  hashes (CodeVersions::current()); tests construct perturbed values
 *  to exercise component-scoped invalidation. */
struct CodeVersions
{
    std::uint64_t core = 1;        ///< shared substrate (see above)
    std::uint64_t apps = 1;        ///< workload kernels + registry
    std::uint64_t directory = 1;   ///< directory protocol stack
    std::uint64_t snoop = 1;       ///< snooping bus backend
    std::uint64_t epoch = 0;       ///< $SWEX_CACHE_EPOCH at startup

    /** The build-derived fingerprints plus the environment epoch. */
    static CodeVersions current();
};

/**
 * The code-version fingerprint for @p spec under @p versions: core,
 * apps, the epoch, and the coherence backend the spec runs on. Two
 * specs on different backends never share fingerprint sensitivity —
 * that is the component-scoped invalidation contract.
 */
std::uint64_t codeFingerprint(const ExperimentSpec &spec,
                              const CodeVersions &versions);

} // namespace cache
} // namespace swex

#endif // SWEX_EXP_CACHE_CODE_VERSION_HH
