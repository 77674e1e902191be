#include "exp/cache/record_io.hh"

#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "base/atomic_file.hh"
#include "base/binary_io.hh"

namespace swex
{
namespace cache
{

std::vector<std::uint8_t>
encodeRecord(const RunRecord &r, std::uint64_t spec_key,
             std::uint64_t code_fp)
{
    bin::Writer w;
    w.out.insert(w.out.end(), recordMagic, recordMagic + 8);
    w.u32(recordVersion);
    w.u64(spec_key);
    w.u64(code_fp);

    w.str(r.id);
    w.str(r.app);
    w.str(r.protocol);
    w.str(r.machineModel);
    w.str(r.execMode);
    w.u32(static_cast<std::uint32_t>(r.nodes));
    w.u8(r.sequential ? 1 : 0);
    w.u64(r.simCycles);
    w.u8(r.verified ? 1 : 0);
    w.str(r.status);
    w.u64(r.lastProgress);
    w.str(r.stallSummary);
    w.u32(r.faultDrop);
    w.u32(r.faultDup);
    w.u32(r.faultBlackout);
    w.u64(r.faultSeed);
    w.u64(r.deadline);
    w.u64(r.imageHash);
    w.f64(r.trapsRaised);
    w.f64(r.handlerCycles);
    w.f64(r.messages);
    w.f64(r.readHandlerMean);
    w.u64(r.readHandlerCount);
    w.f64(r.writeHandlerMean);
    w.u64(r.writeHandlerCount);
    w.f64(r.hostWallSeconds);
    w.f64(r.hostEvents);
    w.u8(r.audited ? 1 : 0);
    w.u64(r.auditTransitions);
    w.u64(r.auditViolations);
    w.f64(r.seqCycles);
    w.f64(r.speedup);
    w.u32(static_cast<std::uint32_t>(r.workerSets.size()));
    for (std::uint64_t v : r.workerSets)
        w.u64(v);
    w.str(r.statsJson);
    w.str(r.statsText);

    w.u64(bin::fnv1a(bin::fnvOffset, w.out.data(), w.out.size()));
    return std::move(w.out);
}

bool
saveRecord(const std::string &path, const RunRecord &r,
           std::uint64_t spec_key, std::uint64_t code_fp,
           std::string &err)
{
    return atomicWriteFile(path, encodeRecord(r, spec_key, code_fp), err);
}

LoadStatus
loadRecord(const std::string &path, RunRecord &out,
           std::uint64_t spec_key, std::uint64_t code_fp,
           std::string &err)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        err = "no cache entry at " + path;
        return LoadStatus::Missing;
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
        return LoadStatus::Corrupt;
    }
    return decodeRecord(raw, path, out, spec_key, code_fp, err);
}

LoadStatus
decodeRecord(const std::vector<std::uint8_t> &raw, const std::string &path,
             RunRecord &out, std::uint64_t spec_key, std::uint64_t code_fp,
             std::string &err)
{
    if (raw.size() < 8 + 4 + 8 + 8 + 8) {
        err = path + ": truncated cache entry";
        return LoadStatus::Corrupt;
    }
    if (std::memcmp(raw.data(), recordMagic, 8) != 0) {
        err = path + ": not a swex-rec file (bad magic)";
        return LoadStatus::Corrupt;
    }
    // The checksum covers everything before the trailing u64.
    const std::uint8_t *body_end = raw.data() + raw.size() - 8;
    std::uint64_t stored_fnv = 0;
    bin::Reader{body_end, body_end + 8}.u64(stored_fnv);
    if (bin::fnv1a(bin::fnvOffset, raw.data(), raw.size() - 8) !=
        stored_fnv) {
        err = path + ": checksum mismatch (corrupt cache entry)";
        return LoadStatus::Corrupt;
    }

    bin::Reader r{raw.data() + 8, body_end};
    std::uint32_t version = 0;
    std::uint64_t key = 0, fp = 0;
    if (!r.u32(version) || !r.u64(key) || !r.u64(fp)) {
        err = path + ": truncated cache header";
        return LoadStatus::Corrupt;
    }
    if (version != recordVersion) {
        err = path + ": unsupported swex-rec version " +
              std::to_string(version) + " (expected " +
              std::to_string(recordVersion) + ")";
        return LoadStatus::Corrupt;
    }
    if (key != spec_key) {
        err = path + ": stored spec key does not match this cell "
                     "(misplaced entry)";
        return LoadStatus::Corrupt;
    }
    if (fp != code_fp) {
        err = path + ": stored code fingerprint is stale";
        return LoadStatus::Stale;
    }

    RunRecord rec;
    std::uint8_t seq = 0, verified = 0, audited = 0;
    std::uint32_t nodes = 0, nsets = 0;
    bool ok = r.str(rec.id) && r.str(rec.app) && r.str(rec.protocol) &&
              r.str(rec.machineModel) && r.str(rec.execMode) &&
              r.u32(nodes) && r.u8(seq) && r.u64(rec.simCycles) &&
              r.u8(verified) && r.str(rec.status) &&
              r.u64(rec.lastProgress) && r.str(rec.stallSummary) &&
              r.u32(rec.faultDrop) && r.u32(rec.faultDup) &&
              r.u32(rec.faultBlackout) && r.u64(rec.faultSeed) &&
              r.u64(rec.deadline) && r.u64(rec.imageHash) &&
              r.f64(rec.trapsRaised) && r.f64(rec.handlerCycles) &&
              r.f64(rec.messages) && r.f64(rec.readHandlerMean) &&
              r.u64(rec.readHandlerCount) &&
              r.f64(rec.writeHandlerMean) &&
              r.u64(rec.writeHandlerCount) &&
              r.f64(rec.hostWallSeconds) && r.f64(rec.hostEvents) &&
              r.u8(audited) && r.u64(rec.auditTransitions) &&
              r.u64(rec.auditViolations) && r.f64(rec.seqCycles) &&
              r.f64(rec.speedup) && r.u32(nsets);
    // Every count is checked against the bytes left before it sizes
    // an allocation: a crafted count is a malformed body, not a
    // bad_alloc.
    ok = ok && nsets <= r.left() / 8;
    if (ok) {
        rec.workerSets.resize(nsets);
        for (std::uint32_t i = 0; ok && i < nsets; ++i)
            ok = r.u64(rec.workerSets[i]);
    }
    ok = ok && r.str(rec.statsJson) && r.str(rec.statsText) &&
         r.cur == r.end;
    if (!ok) {
        err = path + ": malformed cache entry body";
        return LoadStatus::Corrupt;
    }
    rec.nodes = static_cast<int>(nodes);
    rec.sequential = seq != 0;
    rec.verified = verified != 0;
    rec.audited = audited != 0;
    out = std::move(rec);
    return LoadStatus::Ok;
}

} // namespace cache
} // namespace swex
