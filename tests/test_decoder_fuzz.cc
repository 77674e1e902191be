/**
 * @file
 * Seeded mutation fuzz of the two binary decoders: the result cache's
 * swex-rec entries (cache::decodeRecord) and swex-trace-v1 traces
 * (trace::Trace::decode). A valid encoding is mutated by byte flips,
 * truncations, spliced and deleted spans, and length-field
 * overwrites; half the mutants get their checksums recomputed, so
 * they pass the checksum gate and reach the body decoders. Every input
 * must either load or come back with a non-empty error (never a
 * crash, a bad_alloc or a sanitizer report). The seed is fixed, so a
 * failure reproduces exactly.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "base/binary_io.hh"
#include "base/rng.hh"
#include "exp/cache/record_io.hh"
#include "trace/trace_format.hh"

using namespace swex;

namespace
{

using Bytes = std::vector<std::uint8_t>;

constexpr std::uint64_t specKey = 0x5eed5eed5eed5eedull;
constexpr std::uint64_t codeFp = 0xc0dec0dec0dec0deull;

/** splitmix64: a fixed, portable random stream. */
struct SplitMix
{
    std::uint64_t s;

    std::uint64_t
    next()
    {
        return mix64(s += goldenGamma);
    }

    /** Uniform in [0, n), n > 0. */
    std::size_t
    below(std::size_t n)
    {
        return static_cast<std::size_t>(next() % n);
    }
};

std::uint64_t
getLe(const Bytes &b, std::size_t at, int width)
{
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i)
        v |= static_cast<std::uint64_t>(b[at + i]) << (8 * i);
    return v;
}

void
putLe(Bytes &b, std::size_t at, int width, std::uint64_t v)
{
    for (int i = 0; i < width; ++i)
        b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/** A little-endian length or count field: where, and how wide. */
struct LengthField
{
    std::size_t at;
    int width;
};

/** The length fields of @p b, walked as far as its bytes allow; for a
 *  trace, also where its header checksum sits (0 = nowhere). */
struct Layout
{
    std::vector<LengthField> lengths;
    std::size_t headerEnd = 0;
};

Layout
recordLayout(const Bytes &b)
{
    // The body after the 28-byte header, in the order saveRecord
    // writes it: s = u32 length + bytes, w = u32 count + that many
    // u64s, digits = fixed widths.
    static const char body[] =
        "sssss4181s8s444" "888888888888" "1" "8888" "w" "s";
    Layout l;
    std::size_t at = 8 + 4 + 8 + 8;
    for (const char *f = body; *f && b.size() >= at + 4; ++f) {
        if (*f != 's' && *f != 'w') {
            at += static_cast<std::size_t>(*f - '0');
            continue;
        }
        l.lengths.push_back({at, 4});
        const std::uint64_t n = getLe(b, at, 4);
        at += 4 + (*f == 's' ? n : 8 * n);
    }
    return l;
}

Layout
traceLayout(const Bytes &b)
{
    Layout l;
    // magic, version, schema, flags, app nodes; then the stream count
    std::size_t at = 8 + 4 * 4;
    if (b.size() < at + 4)
        return l;
    l.lengths.push_back({at, 4});
    const std::uint64_t streams = getLe(b, at, 4);
    at += 4 + 4 * 8;   // fingerprint, cycles, image hash, seed
    for (int i = 0; i < 3; ++i) {   // app, params, protocol
        if (b.size() < at + 4)
            return l;
        l.lengths.push_back({at, 4});
        at += 4 + getLe(b, at, 4);
    }
    for (std::uint64_t i = 0; i < streams && i < 256; ++i) {
        if (b.size() < at + 16)
            return l;
        l.lengths.push_back({at, 8});   // byte length; op count follows
        at += 16;
    }
    if (b.size() >= at + 8)
        l.headerEnd = at;
    return l;
}

std::uint64_t
fnv1a(const Bytes &b, std::size_t from, std::size_t to)
{
    return bin::fnv1a(bin::fnvOffset, b.data() + from, to - from);
}

/** Recompute @p b's checksums as its writer would have. */
void
resealRecord(Bytes &b)
{
    if (b.size() >= 8)
        putLe(b, b.size() - 8, 8, bin::checksum(b.data(), b.size() - 8));
}

void
resealTrace(Bytes &b)
{
    const std::size_t h = traceLayout(b).headerEnd;
    if (h == 0)
        return;
    putLe(b, h, 8, fnv1a(b, 0, h));
    if (b.size() >= h + 16)
        putLe(b, b.size() - 8, 8, fnv1a(b, h + 8, b.size() - 8));
}

/** One decoder under test: a valid encoding, its layout, its
 *  checksums, and the decoder (false with a reason, or loaded). */
struct Format
{
    Bytes base;
    Layout (*layout)(const Bytes &);
    void (*reseal)(Bytes &);
    std::function<bool(const Bytes &, std::string &)> decode;
};

Format
recordFormat()
{
    RunRecord r;
    r.id = "fuzz/worker/H5/s1";
    r.app = "worker";
    r.protocol = "HW5";
    r.nodes = 16;
    r.verified = true;
    r.simCycles = 20929;
    r.imageHash = 0xfeedfacecafebeefull;
    r.stallSummary = "home 3: stuck in READ_TRANS";
    r.workerSets = {3, 1, 4, 1, 5};
    r.statsJson = "{\"home\":{\"traps\":2}}";
    return {cache::encodeRecord(r, specKey, codeFp), recordLayout,
            resealRecord, [](const Bytes &b, std::string &err) {
                RunRecord out;
                return cache::decodeRecord(b, "mutant", out, specKey,
                                           codeFp, err) ==
                       cache::LoadStatus::Ok;
            }};
}

Format
traceFormat()
{
    trace::Trace t;
    t.meta.portable = true;
    t.meta.appNodes = 4;
    t.meta.recordedCycles = 777;
    t.meta.app = "worker";
    t.meta.params = "iterations=2;wss=4";
    t.meta.protocol = "HW5";
    for (int i = 0; i < 3; ++i) {
        TraceRecorder::Stream s;
        for (int k = 0; k < 6 + 5 * i; ++k)
            s.bytes.push_back(static_cast<std::uint8_t>(17 * k + i));
        s.ops = 3 + i;
        t.streams.push_back(std::move(s));
    }
    t.meta.numThreads = 3;
    return {t.encode(), traceLayout, resealTrace,
            [](const Bytes &b, std::string &err) {
                trace::Trace out;
                return trace::Trace::decode(b, "mutant", out, err);
            }};
}

/** One or two stacked mutations of @p f's base encoding. */
Bytes
mutate(const Format &f, SplitMix &rng)
{
    Bytes in = f.base;
    const int rounds = 1 + static_cast<int>(rng.below(2));
    for (int r = 0; r < rounds; ++r) {
        const std::size_t n = in.size();
        switch (rng.below(6)) {
          case 0:   // flip one bit
            if (n > 0)
                in[rng.below(n)] ^=
                    static_cast<std::uint8_t>(1u << rng.below(8));
            break;
          case 1:   // replace one byte
            if (n > 0)
                in[rng.below(n)] = static_cast<std::uint8_t>(rng.next());
            break;
          case 2:   // truncate
            in.resize(rng.below(n + 1));
            break;
          case 3: {   // splice in a span of the valid encoding
            const std::size_t a = rng.below(f.base.size());
            const std::size_t len = 1 + rng.below(f.base.size() - a);
            in.insert(in.begin() + rng.below(n + 1), f.base.begin() + a,
                      f.base.begin() + a + len);
            break;
          }
          case 4:   // delete a span
            if (n > 0) {
                const std::size_t a = rng.below(n);
                in.erase(in.begin() + a,
                         in.begin() + a + 1 + rng.below(n - a));
            }
            break;
          default: {   // overwrite a length field with a hostile value
            const Layout l = f.layout(in);
            if (l.lengths.empty())
                break;
            const LengthField lf = l.lengths[rng.below(l.lengths.size())];
            const std::uint64_t left = in.size() - lf.at - lf.width;
            const std::uint64_t values[] = {
                0, left + 1, lf.width == 4 ? 0xFFFFFFF0ull : 1ull << 62,
                ~std::uint64_t{0}, rng.next()};
            putLe(in, lf.at, lf.width, values[rng.below(5)]);
            break;
          }
        }
    }
    return in;
}

void
fuzz(const Format &f, std::uint64_t seed, const char *what)
{
    SplitMix rng{seed};
    std::size_t loaded = 0, rejected = 0;
    for (int i = 0; i < 200'000; ++i) {
        Bytes b = mutate(f, rng);
        if (rng.below(2) == 0)
            f.reseal(b);
        std::string err;
        if (f.decode(b, err)) {
            ++loaded;
        } else {
            ASSERT_FALSE(err.empty()) << what << " mutant " << i;
            ++rejected;
        }
    }
    // Both outcomes must actually occur, or the fuzz tests nothing.
    EXPECT_GT(loaded, 1000u);
    EXPECT_GT(rejected, 1000u);
    std::printf("%s: loaded %zu, rejected %zu\n", what, loaded, rejected);
}

} // anonymous namespace

TEST(DecoderFuzz, CraftedWorkerSetCountIsAnError)
{
    const Format f = recordFormat();
    Bytes b = f.base;
    const Layout l = recordLayout(b);
    ASSERT_EQ(l.lengths.size(), 9u);   // 7 strings, the sets, the stats
    putLe(b, l.lengths[7].at, 4, 0xFFFFFFF0u);   // the worker-set count
    resealRecord(b);
    std::string err;
    EXPECT_FALSE(f.decode(b, err));
    EXPECT_EQ(err, "mutant: malformed cache entry body");
}

TEST(DecoderFuzz, CraftedStreamLengthIsAnError)
{
    const Format f = traceFormat();
    Bytes b = f.base;
    const Layout l = traceLayout(b);
    ASSERT_EQ(l.lengths.size(), 7u);   // count, 3 strings, 3 streams
    putLe(b, l.lengths[4].at, 8, 1ull << 62);   // the first stream
    resealTrace(b);
    std::string err;
    EXPECT_FALSE(f.decode(b, err));
    EXPECT_EQ(err, "mutant: truncated payload (stream 0)");
}

TEST(DecoderFuzz, MutatedRecordsLoadOrFail)
{
    fuzz(recordFormat(), 20261017, "records");
}

TEST(DecoderFuzz, MutatedTracesLoadOrFail)
{
    fuzz(traceFormat(), 20261018, "traces");
}
