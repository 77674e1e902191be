#include "trace/trace_format.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "base/atomic_file.hh"
#include "base/binary_io.hh"
#include "core/directory.hh"
#include "machine/directory_backend.hh"
#include "machine/machine.hh"
#include "machine/snoop.hh"

namespace swex
{
namespace trace
{

namespace
{

/** Header flag bits. */
constexpr std::uint32_t flagPortable = 1u << 0;
constexpr std::uint32_t flagSequential = 1u << 1;

} // anonymous namespace

std::vector<std::uint8_t>
Trace::encode() const
{
    bin::Writer w;
    w.out.insert(w.out.end(), traceMagic, traceMagic + 8);
    w.u32(meta.version);
    w.u32(meta.schema);
    w.u32((meta.portable ? flagPortable : 0u) |
          (meta.sequential ? flagSequential : 0u));
    w.u32(meta.appNodes);
    w.u32(static_cast<std::uint32_t>(streams.size()));
    w.u64(meta.configFingerprint);
    w.u64(meta.recordedCycles);
    w.u64(meta.recordedImageHash);
    w.u64(meta.seed);
    w.str(meta.app);
    w.str(meta.params);
    w.str(meta.protocol);
    for (const auto &s : streams) {
        w.u64(s.bytes.size());
        w.u64(s.ops);
    }
    w.u64(bin::fnv1a(bin::fnvOffset, w.out.data(), w.out.size()));

    std::uint64_t payload_fnv = bin::fnvOffset;
    for (const auto &s : streams) {
        payload_fnv = bin::fnv1a(payload_fnv, s.bytes.data(),
                                 s.bytes.size());
        w.out.insert(w.out.end(), s.bytes.begin(), s.bytes.end());
    }
    w.u64(payload_fnv);
    return std::move(w.out);
}

bool
Trace::save(const std::string &path, std::string &err) const
{
    // The whole container goes to the atomic writer: a uniquely named
    // temp sibling plus rename, so concurrent sweep workers recording
    // the same key never observe (or produce) a half-written trace.
    return atomicWriteFile(path, encode(), err);
}

bool
Trace::load(const std::string &path, Trace &out, std::string &err)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        err = "no trace file at " + path;
        return false;
    }
    std::vector<std::uint8_t> raw;
    std::uint8_t buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        raw.insert(raw.end(), buf, buf + n);
    bool read_err = std::ferror(f) != 0;
    std::fclose(f);
    if (read_err) {
        err = "I/O error reading " + path;
        return false;
    }
    return decode(raw, path, out, err);
}

bool
Trace::decode(const std::vector<std::uint8_t> &raw, const std::string &path,
              Trace &out, std::string &err)
{
    bin::Reader r{raw.data(), raw.data() + raw.size()};
    char magic[8];
    if (!r.bytes(magic, 8)) {
        err = path + ": truncated (no magic)";
        return false;
    }
    if (std::memcmp(magic, traceMagic, 8) != 0) {
        err = path + ": not a swex-trace file (bad magic)";
        return false;
    }

    Trace t;
    std::uint32_t flags = 0, nstreams = 0;
    if (!r.u32(t.meta.version) || !r.u32(t.meta.schema)) {
        err = path + ": truncated header";
        return false;
    }
    if (t.meta.version != traceVersion) {
        err = path + ": unsupported trace version " +
              std::to_string(t.meta.version) + " (expected " +
              std::to_string(traceVersion) + ")";
        return false;
    }
    if (t.meta.schema != traceSchema) {
        err = path + ": stale op-encoding schema " +
              std::to_string(t.meta.schema) + " (current " +
              std::to_string(traceSchema) + "); re-record";
        return false;
    }
    if (!r.u32(flags) || !r.u32(t.meta.appNodes) ||
        !r.u32(nstreams) || !r.u64(t.meta.configFingerprint) ||
        !r.u64(t.meta.recordedCycles) ||
        !r.u64(t.meta.recordedImageHash) || !r.u64(t.meta.seed) ||
        !r.str(t.meta.app) || !r.str(t.meta.params) ||
        !r.str(t.meta.protocol)) {
        err = path + ": truncated header";
        return false;
    }
    t.meta.portable = (flags & flagPortable) != 0;
    t.meta.sequential = (flags & flagSequential) != 0;
    t.meta.numThreads = nstreams;
    if (nstreams == 0 || nstreams > static_cast<std::uint32_t>(
                                        maxNodes)) {
        err = path + ": implausible thread count " +
              std::to_string(nstreams);
        return false;
    }

    std::vector<std::pair<std::uint64_t, std::uint64_t>> lens;
    lens.reserve(nstreams);
    for (std::uint32_t i = 0; i < nstreams; ++i) {
        std::uint64_t bytes_len, ops;
        if (!r.u64(bytes_len) || !r.u64(ops)) {
            err = path + ": truncated stream table";
            return false;
        }
        lens.emplace_back(bytes_len, ops);
    }

    std::uint64_t stored_header_fnv;
    std::size_t header_len =
        static_cast<std::size_t>(r.cur - raw.data());
    if (!r.u64(stored_header_fnv)) {
        err = path + ": truncated header checksum";
        return false;
    }
    if (bin::fnv1a(bin::fnvOffset, raw.data(), header_len) !=
        stored_header_fnv) {
        err = path + ": header checksum mismatch (corrupt trace)";
        return false;
    }

    std::uint64_t payload_fnv = bin::fnvOffset;
    t.streams.resize(nstreams);
    for (std::uint32_t i = 0; i < nstreams; ++i) {
        auto &s = t.streams[i];
        s.ops = lens[i].second;
        if (!r.blob(s.bytes, lens[i].first)) {
            err = path + ": truncated payload (stream " +
                  std::to_string(i) + ")";
            return false;
        }
        payload_fnv = bin::fnv1a(payload_fnv, s.bytes.data(),
                                 s.bytes.size());
    }

    std::uint64_t stored_payload_fnv;
    if (!r.u64(stored_payload_fnv)) {
        err = path + ": truncated payload checksum";
        return false;
    }
    if (payload_fnv != stored_payload_fnv) {
        err = path + ": payload checksum mismatch (corrupt trace)";
        return false;
    }

    out = std::move(t);
    return true;
}

std::string
Trace::keyMismatch(const std::string &app,
                   const std::string &canonical_params, int app_nodes,
                   bool sequential) const
{
    if (meta.app != app)
        return "trace records app '" + meta.app + "', not '" + app +
               "'";
    if (meta.params != canonical_params)
        return "trace params {" + meta.params +
               "} do not match requested {" + canonical_params + "}";
    if (meta.appNodes != static_cast<std::uint32_t>(app_nodes))
        return "trace recorded for " + std::to_string(meta.appNodes) +
               " nodes, requested " + std::to_string(app_nodes);
    if (meta.sequential != sequential)
        return std::string("trace records the ") +
               (meta.sequential ? "sequential" : "parallel") +
               " kernel, requested " +
               (sequential ? "sequential" : "parallel");
    return "";
}

std::string
canonicalAppParams(const std::map<std::string, std::string> &params)
{
    std::string out;
    for (const auto &[k, v] : params) {
        if (!out.empty())
            out += ';';
        out += k;
        out += '=';
        out += v;
    }
    return out;
}

std::uint64_t
configFingerprint(const MachineConfig &mc)
{
    // The fixed machine parameters were once config fields. Each is
    // still mixed at its old position as a 64-bit word (the watchdog's
    // "iff the protocol needs it" as -1), so every result-cache key,
    // entry file name and exact-config trace name stays valid.
    std::uint64_t h = bin::fnvOffset;
    auto mix = [&h](std::uint64_t v) {
        h = bin::fnv1a(h, &v, sizeof(v));
    };
    mix(static_cast<std::uint64_t>(mc.numNodes));
    mix(static_cast<std::uint64_t>(mc.protocol.hwPointers));
    mix(static_cast<std::uint64_t>(mc.protocol.ackMode));
    mix(mc.protocol.swBroadcast);
    mix(mc.protocol.localBit);
    mix(static_cast<std::uint64_t>(mc.profile));
    mix(mc.parallelInv);
    mix(static_cast<std::uint64_t>(mc.mutation));
    mix(memLatency);
    mix(hwCtrlLatency);
    mix(rxOccupancy);
    mix(hopLatency);
    mix(routerEntry);
    mix(loopback);
    mix(mc.net.jitterMax);
    mix(mc.net.jitterSeed);
    mix(mc.net.faults.dropPerMille);
    mix(mc.net.faults.dupPerMille);
    mix(mc.net.faults.blackoutPerMille);
    mix(mc.net.faults.blackoutMax);
    mix(retransmitTimeout);
    mix(retransmitBound);
    mix(mc.net.faults.seed);
    mix(cacheBytes);
    mix(mc.victimEntries);
    mix(hitLatency);
    mix(victimSwapLatency);
    mix(fillLatency);
    mix(missIssueLatency);
    mix(instrMissLatency);
    mix(retryBase);
    mix(retryCap);
    mix(mc.perfectIfetch);
    mix(static_cast<std::uint64_t>(-1));
    mix(segBytes);
    mix(mc.seed);
    mix(mc.deadline);
    // Snooping machine model: mixed only when selected, so every
    // directory fingerprint (and its cached traces) is unchanged.
    if (mc.machineModel != MachineModel::Directory) {
        mix(static_cast<std::uint64_t>(mc.machineModel));
        mix(static_cast<std::uint64_t>(mc.snoopProtocol));
        mix(static_cast<std::uint64_t>(mc.busArbitration));
        mix(busAddrCycles);
        mix(busDataCycles);
        mix(busUpdCycles);
        mix(c2cLatency);
    }
    return h;
}

std::string
traceFileName(const std::string &app,
              const std::string &canonical_params, int app_nodes,
              bool sequential, bool portable,
              std::uint64_t config_fingerprint)
{
    std::uint64_t ph = bin::fnv1a(bin::fnvOffset,
                                  canonical_params.data(),
                                  canonical_params.size());
    char buf[64];
    std::snprintf(buf, sizeof(buf), "-p%016llx-n%d",
                  static_cast<unsigned long long>(ph), app_nodes);
    std::string name = app + buf;
    if (sequential)
        name += "-seq";
    if (!portable) {
        std::snprintf(buf, sizeof(buf), "-c%016llx",
                      static_cast<unsigned long long>(
                          config_fingerprint));
        name += buf;
    }
    return name + ".swextrace";
}

std::string
resolveTraceDir(const std::string &explicit_dir)
{
    if (!explicit_dir.empty())
        return explicit_dir;
    const char *env = std::getenv("SWEX_TRACE_CACHE");
    return env != nullptr ? env : "";
}

} // namespace trace
} // namespace swex
