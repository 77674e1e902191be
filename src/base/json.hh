/**
 * @file
 * JSON scalars: the encoding shared by every document the simulator
 * writes itself (stats trees and swex-run-v1 records), and the one
 * unsigned-number grammar its wire and command lines read. Canonical
 * records, result-cache entries and pinned digests hash the encoded
 * bytes, so a number prints exactly as printf's "%.17g" prints it.
 */

#ifndef SWEX_BASE_JSON_HH
#define SWEX_BASE_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace swex::json
{

/**
 * Append @p v as printf's "%.17g" would (round-trips every double).
 * JSON has no NaN or infinities: they, and magnitudes past 1e308,
 * become 0.
 */
void appendNumber(std::string &out, double v);

/** Append @p s quoted, escaping '"', '\\' and control characters. */
void appendString(std::string &out, std::string_view s);

/**
 * Parse @p text as an unsigned decimal integer in the wire's number
 * grammar for counts and seeds: digits only (no sign, space, fraction
 * or exponent) and no overflow. Every command line uses it too.
 */
bool parseU64(const std::string &text, std::uint64_t &out);

} // namespace swex::json

#endif // SWEX_BASE_JSON_HH
