/**
 * @file
 * The swex-rec container (version 3): one finished RunRecord,
 * serialized field for field into a checksummed binary file under the
 * result cache.
 * Loading rehydrates a RunRecord whose every member equals the stored
 * run's, so its writeJson() output — canonical or not — is
 * byte-identical to the document the original direct run emitted;
 * that is the cache's whole correctness contract.
 *
 * The header carries the (spec key, code fingerprint) pair the entry
 * was stored under, re-validated at load time so a renamed or
 * misplaced file can never serve the wrong cell, and an entry another
 * build stored (the result cache passes buildFingerprint()) reads as
 * Stale. A trailing bin::checksum covers every preceding byte; any
 * mismatch, truncation, or unknown version is a structured error,
 * which the cache treats as a miss (recompute and overwrite), never a
 * crash. An entry an older
 * version wrote (version 1 was sealed with byte-wise FNV-1a; version
 * 2 also stored a text rendering of the stats tree) reads as Stale,
 * so its cell is recomputed and the entry replaced in place.
 */

#ifndef SWEX_EXP_CACHE_RECORD_IO_HH
#define SWEX_EXP_CACHE_RECORD_IO_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "exp/run_record.hh"

namespace swex
{
namespace cache
{

constexpr std::uint32_t recordVersion = 3;
constexpr char recordMagic[8] = {'S', 'W', 'E', 'X', 'R', 'E', 'C',
                                 '1'};

/** The swex-rec bytes of @p record under (@p spec_key, @p code_fp),
 *  checksum included. */
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
    Stale,     ///< an older version's entry, or the code fingerprint
               ///< moved on
};

/**
 * Load and fully validate @p path: magic, version, the whole-file
 * checksum, and the stored (spec key, code fingerprint) against the
 * expected pair. On anything but Ok, @p err holds a structured reason
 * and @p out is untouched.
 */
LoadStatus loadRecord(const std::string &path, RunRecord &out,
                      std::uint64_t spec_key, std::uint64_t code_fp,
                      std::string &err);

/** loadRecord() of a file's bytes already in memory; @p path only
 *  names them in errors. */
LoadStatus decodeRecord(std::span<const std::uint8_t> raw,
                        const std::string &path, RunRecord &out,
                        std::uint64_t spec_key, std::uint64_t code_fp,
                        std::string &err);

} // namespace cache
} // namespace swex

#endif // SWEX_EXP_CACHE_RECORD_IO_HH
