/**
 * @file
 * Wire encoding for swex-trace-v1 operation streams: one byte stream
 * per simulated thread, each operation an opcode byte followed by its
 * LEB128 varint operands. Streams carry the app-visible op sequence
 * only, no timing: replay regenerates every cycle by driving the
 * simulated machinery. The encoding is schema-versioned (see
 * trace_format.hh): any change to the opcode set or operand layout
 * must bump traceSchema so stale cached traces are rejected instead
 * of misdecoded.
 */

#ifndef SWEX_TRACE_ENCODING_HH
#define SWEX_TRACE_ENCODING_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"

namespace swex
{
namespace trace
{

/** Bumped whenever the opcode set or operand layout changes. */
constexpr std::uint32_t traceSchema = 2;

/** Operation codes, one per app-visible Mem call, with the operands
 *  that follow the opcode byte. */
enum class Op : std::uint8_t
{
    End = 0,           ///< explicit end-of-stream guard
    Work = 1,          ///< work(n): varint n (n > 0)
    Load = 2,          ///< read(a): varint addr
    Store = 3,         ///< write(a, v): varint addr, varint value
    FetchAdd = 4,      ///< fetchAdd(a, v): varint addr, varint delta
    Swap = 5,          ///< swap(a, v): varint addr, varint value
    SetFootprint = 6,  ///< varint count, then count varint addrs
    HwBarrier = 7,     ///< hwBarrier()
};

/** Append @p v as a LEB128 varint. */
inline void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

/**
 * Decode a LEB128 varint from [cur, end). Advances @p cur past the
 * value. @return false on truncation or overlong encoding.
 */
inline bool
getVarint(const std::uint8_t *&cur, const std::uint8_t *end,
          std::uint64_t &v)
{
    v = 0;
    unsigned shift = 0;
    while (cur != end && shift < 64) {
        std::uint8_t b = *cur++;
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80))
            return true;
        shift += 7;
    }
    return false;
}

} // namespace trace
} // namespace swex

#endif // SWEX_TRACE_ENCODING_HH
