/**
 * @file
 * The little-endian binary encoding the simulator's own files share:
 * FNV-1a hashing (cache keys, code and config fingerprints, the
 * swex-trace-v1 checksums), the word-wise checksum that seals
 * swex-rec v2 result-cache entries, an appending writer, and a
 * bounds-checked reader for both containers.
 * The reader checks every read, and every length read from the input,
 * against the bytes left, so a crafted length fails the read instead
 * of sizing an allocation.
 */

#ifndef SWEX_BASE_BINARY_IO_HH
#define SWEX_BASE_BINARY_IO_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace swex::bin
{

/**
 * The offset basis every hash and checksum here starts from. It is
 * one digit short of the standard FNV-1a 64-bit basis
 * (14695981039346656037). It stays: every result-cache key, trace
 * fingerprint and grid digest is derived from it, so changing it
 * would move them all.
 */
constexpr std::uint64_t fnvOffset = 1469598103934665603ull;
constexpr std::uint64_t fnvPrime = 1099511628211ull;

/** FNV-1a of @p n bytes at @p data, continuing from @p h. */
inline std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < n; ++i)
        h = (h ^ p[i]) * fnvPrime;
    return h;
}

/** FNV-1a of @p v's eight bytes, least significant first. */
inline std::uint64_t
fnv1aU64(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        h = (h ^ ((v >> (8 * i)) & 0xff)) * fnvPrime;
    return h;
}

/**
 * The swex-rec v2 entry checksum. The bytes are read as little-endian
 * u64 words (the last one zero-padded), and word k feeds lane k % 4,
 * so the four lanes' multiplies overlap instead of forming one serial
 * chain; the byte count is mixed into the merge, so the padding
 * cannot alias a shorter input. A lane step is
 * rotl(lane + word * p2, 31) * p1: with the word fixed it is a
 * bijection of the lane, and with the lane fixed a bijection of the
 * word. The merge is a bijection of each lane with the others fixed.
 * So changing any one byte changes one word, hence its lane's state
 * from then on, hence the sum: every single-byte change is caught, as
 * it was by the byte-wise FNV-1a this replaces.
 */
inline std::uint64_t
checksum(const void *data, std::size_t n)
{
    constexpr std::uint64_t p1 = 0x9e3779b185ebca87ull;
    constexpr std::uint64_t p2 = 0xc2b2ae3d27d4eb4full;
    constexpr std::uint64_t p3 = 0x165667b19e3779f9ull;
    constexpr std::uint64_t p4 = 0x85ebca77c2b2ae63ull;
    const auto *p = static_cast<const std::uint8_t *>(data);
    auto load = [p](std::size_t at, std::size_t len) {
        std::uint64_t w = 0;
        std::memcpy(&w, p + at, len);
        if constexpr (std::endian::native == std::endian::big)
            w = __builtin_bswap64(w);
        return w;
    };
    auto step = [](std::uint64_t lane, std::uint64_t w) {
        return std::rotl(lane + w * p2, 31) * p1;
    };
    std::uint64_t lane[4] = {fnvOffset, fnvOffset + p1, fnvOffset + p2,
                             fnvOffset - p1};
    std::size_t at = 0;
    for (; n - at >= 32; at += 32)
        for (int k = 0; k < 4; ++k)
            lane[k] = step(lane[k], load(at + 8 * k, 8));
    for (int k = 0; at < n; at += 8, ++k)
        lane[k] = step(lane[k], load(at, n - at < 8 ? n - at : 8));

    std::uint64_t h = static_cast<std::uint64_t>(n) * p3;
    for (std::uint64_t l : lane)
        h = (h ^ step(0, l)) * p1 + p4;
    h = (h ^ (h >> 33)) * p2;
    h = (h ^ (h >> 29)) * p3;
    return h ^ (h >> 32);
}

struct Writer
{
    std::vector<std::uint8_t> out;

    void u8(std::uint8_t v) { out.push_back(v); }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    f64(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    /** A u32 length, then the bytes. */
    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        out.insert(out.end(), s.begin(), s.end());
    }
};

struct Reader
{
    const std::uint8_t *cur;
    const std::uint8_t *end;

    std::size_t left() const { return static_cast<std::size_t>(end - cur); }

    bool
    bytes(void *dst, std::size_t n)
    {
        if (left() < n)
            return false;
        std::memcpy(dst, cur, n);
        cur += n;
        return true;
    }

    bool u8(std::uint8_t &v) { return bytes(&v, 1); }

    bool
    u32(std::uint32_t &v)
    {
        std::uint64_t wide = 0;
        if (!le(wide, 4))
            return false;
        v = static_cast<std::uint32_t>(wide);
        return true;
    }

    bool u64(std::uint64_t &v) { return le(v, 8); }

    bool
    f64(double &v)
    {
        std::uint64_t bits;
        if (!u64(bits))
            return false;
        std::memcpy(&v, &bits, sizeof(v));
        return true;
    }

    /** @p n raw bytes into @p out; false, with nothing allocated, if
     *  fewer are left. */
    bool
    blob(std::vector<std::uint8_t> &out, std::uint64_t n)
    {
        if (left() < n)
            return false;
        out.assign(cur, cur + n);
        cur += n;
        return true;
    }

    /** What Writer::str wrote. */
    bool
    str(std::string &s)
    {
        std::uint32_t n;
        if (!u32(n) || left() < n)
            return false;
        s.assign(reinterpret_cast<const char *>(cur), n);
        cur += n;
        return true;
    }

  private:
    bool
    le(std::uint64_t &v, int width)
    {
        std::uint8_t b[8];
        if (!bytes(b, static_cast<std::size_t>(width)))
            return false;
        v = 0;
        for (int i = 0; i < width; ++i)
            v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
        return true;
    }
};

} // namespace swex::bin

#endif // SWEX_BASE_BINARY_IO_HH
