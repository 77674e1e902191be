/**
 * @file
 * The swex-trace-v1 container: a versioned binary file holding one
 * recorded run's per-thread operation streams plus the header that
 * keys it — (app, canonical params, nodes, sequential, encoding
 * schema) — and the recorded machine-config fingerprint.
 *
 * Two kinds of traces exist, distinguished by the header's portable
 * flag:
 *
 *  - config-bound (any app): replayable only under a machine config
 *    whose fingerprint matches the recording config exactly. Under
 *    that config, replay is bit-identical to direct execution by
 *    determinism induction.
 *  - portable (apps the registry declares trace-portable): the op
 *    stream is timing-independent — static reference streams plus
 *    hardware sync only — so one recording drives replay under any
 *    protocol / latency / victim / profile / seed cell at the same
 *    (app, params, nodes). Apps with timing-dependent control flow
 *    (software spin locks, work queues) are refused at record time.
 *
 * Loading validates magic, version, schema, and independent FNV-1a
 * checksums over header and payload; every failure is a structured
 * error string, never a crash.
 */

#ifndef SWEX_TRACE_TRACE_FORMAT_HH
#define SWEX_TRACE_TRACE_FORMAT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/types.hh"
#include "trace/encoding.hh"
#include "trace/recorder.hh"

namespace swex
{

struct MachineConfig;

namespace trace
{

constexpr std::uint32_t traceVersion = 1;
constexpr char traceMagic[8] = {'S', 'W', 'E', 'X', 'T', 'R', 'C', '1'};

/** Everything in a trace file besides the op streams themselves. */
struct TraceMeta
{
    std::uint32_t version = traceVersion;
    std::uint32_t schema = traceSchema;
    bool portable = false;
    bool sequential = false;
    std::uint32_t appNodes = 0;    ///< nodes arg to the app factory
    std::uint32_t numThreads = 0;  ///< op streams in the payload
    std::uint64_t configFingerprint = 0;
    std::uint64_t recordedCycles = 0;
    std::uint64_t recordedImageHash = 0;
    std::uint64_t seed = 0;        ///< recording run's machine seed
    std::string app;
    std::string params;            ///< canonicalAppParams() form
    std::string protocol;          ///< recording protocol (informational)
};

/** A decoded (or under-construction) trace. */
struct Trace
{
    TraceMeta meta;
    std::vector<TraceRecorder::Stream> streams;

    /** The swex-trace-v1 bytes of this trace, checksums included. */
    std::vector<std::uint8_t> encode() const;

    /** Serialize to @p path. @return false with @p err set on I/O
     *  failure. */
    bool save(const std::string &path, std::string &err) const;

    /**
     * Load and fully validate @p path. @return false with a
     * structured reason in @p err (missing file, bad magic, version
     * or schema mismatch, checksum failure, truncation).
     */
    static bool load(const std::string &path, Trace &out,
                     std::string &err);

    /** load() of a file's bytes already in memory; @p path only names
     *  them in errors. */
    static bool decode(const std::vector<std::uint8_t> &raw,
                       const std::string &path, Trace &out,
                       std::string &err);

    /**
     * Does this trace's key match the requested run? @return empty
     * string on match, else a human-readable mismatch description
     * (the stale-key diagnostic).
     */
    std::string keyMismatch(const std::string &app,
                            const std::string &canonical_params,
                            int app_nodes, bool sequential) const;
};

/** AppParams in canonical "k=v;k=v" form (std::map is key-sorted). */
std::string canonicalAppParams(
    const std::map<std::string, std::string> &params);

/**
 * FNV-1a fingerprint over every timing-relevant MachineConfig field.
 * Two configs with equal fingerprints run any fixed op stream to
 * bit-identical cycle counts; config-bound traces require an exact
 * match at replay time.
 */
std::uint64_t configFingerprint(const MachineConfig &mc);

/** Canonical file name for a trace under a cache directory. */
std::string traceFileName(const std::string &app,
                          const std::string &canonical_params,
                          int app_nodes, bool sequential,
                          bool portable,
                          std::uint64_t config_fingerprint);

/** @p explicit_dir if nonempty, else $SWEX_TRACE_CACHE, else "". */
std::string resolveTraceDir(const std::string &explicit_dir);

} // namespace trace
} // namespace swex

#endif // SWEX_TRACE_TRACE_FORMAT_HH
