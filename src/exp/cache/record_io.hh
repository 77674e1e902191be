/**
 * @file
 * The swex-rec-v1 container: one finished RunRecord, serialized field
 * for field into a checksummed binary file under the result cache.
 * Loading rehydrates a RunRecord whose every member equals the stored
 * run's, so its writeJson() output — canonical or not — is
 * byte-identical to the document the original direct run emitted;
 * that is the cache's whole correctness contract.
 *
 * The header carries the (spec key, code fingerprint) pair the entry
 * was stored under, re-validated at load time so a renamed or
 * misplaced file can never serve the wrong cell. A trailing FNV-1a
 * checksum covers every preceding byte; any mismatch, truncation, or
 * unknown version is a structured error, which the cache treats as a
 * miss (recompute and overwrite), never a crash.
 */

#ifndef SWEX_EXP_CACHE_RECORD_IO_HH
#define SWEX_EXP_CACHE_RECORD_IO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exp/run_record.hh"

namespace swex
{
namespace cache
{

constexpr std::uint32_t recordVersion = 1;
constexpr char recordMagic[8] = {'S', 'W', 'E', 'X', 'R', 'E', 'C',
                                 '1'};

/** The swex-rec-v1 bytes of @p record under (@p spec_key,
 *  @p code_fp), checksum included. */
std::vector<std::uint8_t> encodeRecord(const RunRecord &record,
                                       std::uint64_t spec_key,
                                       std::uint64_t code_fp);

/**
 * Serialize @p record under (@p spec_key, @p code_fp) and atomically
 * replace @p path (unique-temp + rename: concurrent same-key writers
 * each produce a complete file). @return false with @p err set.
 */
bool saveRecord(const std::string &path, const RunRecord &record,
                std::uint64_t spec_key, std::uint64_t code_fp,
                std::string &err);

/** How a load ended; everything but Ok carries a structured err. */
enum class LoadStatus
{
    Ok,        ///< record rehydrated
    Missing,   ///< no file at the path
    Corrupt,   ///< bad magic/version/checksum/body, or misplaced key
    Stale,     ///< valid entry, but the code fingerprint moved on
};

/**
 * Load and fully validate @p path: magic, version, the stored
 * (spec key, code fingerprint) against the expected pair, and the
 * whole-file checksum. On anything but Ok, @p err holds a structured
 * reason and @p out is untouched.
 */
LoadStatus loadRecord(const std::string &path, RunRecord &out,
                      std::uint64_t spec_key, std::uint64_t code_fp,
                      std::string &err);

/** loadRecord() of a file's bytes already in memory; @p path only
 *  names them in errors. */
LoadStatus decodeRecord(const std::vector<std::uint8_t> &raw,
                        const std::string &path, RunRecord &out,
                        std::uint64_t spec_key, std::uint64_t code_fp,
                        std::string &err);

} // namespace cache
} // namespace swex

#endif // SWEX_EXP_CACHE_RECORD_IO_HH
