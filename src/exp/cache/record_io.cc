#include "exp/cache/record_io.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
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

    w.u64(bin::checksum(w.out.data(), w.out.size()));
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
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        err = "no cache entry at " + path;
        return LoadStatus::Missing;
    }
    // Entries are published by rename and never written in place, so
    // the size fstat reports is the whole entry: one read fetches it.
    struct stat st;
    bool read_err = ::fstat(fd, &st) != 0;
    const std::size_t size =
        read_err ? 0 : static_cast<std::size_t>(st.st_size);
    auto raw = std::make_unique_for_overwrite<std::uint8_t[]>(size);
    std::size_t got = 0;
    while (!read_err && got < size) {
        const ssize_t n = ::read(fd, raw.get() + got, size - got);
        if (n < 0 && errno == EINTR)
            continue;
        read_err = n < 0;
        if (n <= 0)
            break;
        got += static_cast<std::size_t>(n);
    }
    ::close(fd);
    if (read_err) {
        err = "I/O error reading " + path;
        return LoadStatus::Corrupt;
    }
    return decodeRecord({raw.get(), got}, path, out, spec_key, code_fp,
                        err);
}

LoadStatus
decodeRecord(std::span<const std::uint8_t> raw, const std::string &path,
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
    // The version comes first: an older version seals with another
    // checksum, so its entry is stale, whatever its last 8 bytes say.
    const std::uint8_t *body_end = raw.data() + raw.size() - 8;
    bin::Reader r{raw.data() + 8, body_end};
    std::uint32_t version = 0;
    r.u32(version);
    if (version != recordVersion) {
        const bool older = version >= 1 && version < recordVersion;
        err = path + (older ? ": stale swex-rec version "
                            : ": unsupported swex-rec version ") +
              std::to_string(version) + " (expected " +
              std::to_string(recordVersion) + ")";
        return older ? LoadStatus::Stale : LoadStatus::Corrupt;
    }
    // The checksum covers everything before the trailing u64.
    std::uint64_t stored_sum = 0;
    bin::Reader{body_end, body_end + 8}.u64(stored_sum);
    if (bin::checksum(raw.data(), raw.size() - 8) != stored_sum) {
        err = path + ": checksum mismatch (corrupt cache entry)";
        return LoadStatus::Corrupt;
    }

    std::uint64_t key = 0, fp = 0;
    if (!r.u64(key) || !r.u64(fp)) {
        err = path + ": truncated cache header";
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
    ok = ok && r.str(rec.statsJson) && r.cur == r.end;
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
