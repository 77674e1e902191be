/**
 * @file
 * JSON scalar encoding shared by every document the simulator writes
 * itself: stats trees and swex-run-v1 records. Canonical records,
 * result-cache entries and pinned digests hash these bytes, so a
 * number prints exactly as printf's "%.17g" prints it.
 */

#ifndef SWEX_BASE_JSON_HH
#define SWEX_BASE_JSON_HH

#include <string>

namespace swex::json
{

/**
 * Append @p v as printf's "%.17g" would (round-trips every double).
 * JSON has no NaN or infinities: they, and magnitudes past 1e308,
 * become 0.
 */
void appendNumber(std::string &out, double v);

/** Append @p s quoted, escaping '"', '\\' and control characters. */
void appendString(std::string &out, const std::string &s);

} // namespace swex::json

#endif // SWEX_BASE_JSON_HH
