/**
 * @file
 * Unit tests for the foundation library: logging format helpers,
 * integer math, deterministic RNG, the statistics package, and the
 * swex-rec checksum.
 */

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "base/binary_io.hh"
#include "base/intmath.hh"
#include "base/json.hh"
#include "base/logging.hh"
#include "base/rng.hh"
#include "base/stats.hh"

#include "json_helpers.hh"

using namespace swex;

TEST(Strfmt, FormatsLikePrintf)
{
    EXPECT_EQ(strfmt("x=%d y=%s", 7, "abc"), "x=7 y=abc");
    EXPECT_EQ(strfmt("%#llx", 0x10ULL), "0x10");
    EXPECT_EQ(strfmt("plain"), "plain");
}

TEST(IntMath, PowersOfTwo)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(64));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(48));
}

TEST(IntMath, Logs)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2(65), 6u);
    EXPECT_EQ(ceilLog2(64), 6u);
    EXPECT_EQ(ceilLog2(65), 7u);
}

TEST(IntMath, DivCeilAndRoundUp)
{
    EXPECT_EQ(divCeil(10, 4), 3u);
    EXPECT_EQ(divCeil(8, 4), 2u);
    EXPECT_EQ(roundUp(13, 8), 16u);
    EXPECT_EQ(roundUp(16, 8), 16u);
}

// The swex-rec seal: for every length through three 32-byte blocks
// (so every lane and every tail length), any change to one byte, and
// one zero byte appended (which the word padding alone would not
// tell apart), changes the sum.
TEST(BinaryIo, ChecksumCatchesEveryByteChangeAndEveryLength)
{
    std::vector<std::uint8_t> buf(100);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::uint8_t>(37 * i + 11);
    for (std::size_t n = 0; n < buf.size(); ++n) {
        const std::uint64_t sum = bin::checksum(buf.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::uint8_t flip : {0x01, 0x80, 0xff}) {
                buf[i] ^= flip;
                ASSERT_NE(bin::checksum(buf.data(), n), sum)
                    << "length " << n << ", byte " << i;
                buf[i] ^= flip;
            }
        }
        std::vector<std::uint8_t> longer(buf.begin(), buf.begin() + n);
        longer.push_back(0);
        ASSERT_NE(bin::checksum(longer.data(), longer.size()), sum)
            << "length " << n;
    }
    // Entries on disk carry this sum, so its value is part of the
    // format: changing the function needs a new recordVersion.
    EXPECT_EQ(bin::checksum("swex-rec", 8), 0x623d5dafc21fc614ull);
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool differs = false;
    Rng a2(42);
    for (int i = 0; i < 100; ++i)
        differs |= (a2.next() != c.next());
    EXPECT_TRUE(differs);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RealInUnitInterval)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        double d = r.real();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Stats, ScalarAccumulates)
{
    stats::Group g;
    stats::Scalar s(&g, "s");
    ++s;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
}

TEST(Stats, DistributionMoments)
{
    stats::Group g;
    stats::Distribution d(&g, "d");
    d.sample(1);
    d.sample(3);
    d.sample(5);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 3.0);
    EXPECT_DOUBLE_EQ(d.minValue(), 1.0);
    EXPECT_DOUBLE_EQ(d.maxValue(), 5.0);
    EXPECT_NEAR(d.stddev(), 2.0, 1e-9);
}

TEST(Stats, HistogramBuckets)
{
    stats::Group g;
    stats::Histogram h(&g, "h");
    h.init(4, 10.0);
    h.sample(0);
    h.sample(9.9);
    h.sample(10);
    h.sample(1000);   // clamps to last bucket
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.totalCount(), 4u);
}

TEST(Stats, GroupFindByDottedPath)
{
    stats::Group root;
    stats::Group child(&root, "node0");
    stats::Scalar s(&child, "hits");
    s += 4;
    const stats::Stat *found = root.find("node0.hits");
    ASSERT_NE(found, nullptr);
    EXPECT_DOUBLE_EQ(
        dynamic_cast<const stats::Scalar *>(found)->value(), 4.0);
    EXPECT_EQ(root.find("node0.misses"), nullptr);
    EXPECT_EQ(root.find("nodeX.hits"), nullptr);
}

TEST(Stats, DumpJsonRoundTrip)
{
    stats::Group root;
    stats::Group net(&root, "net");
    stats::Scalar msgs(&net, "msgs");
    msgs += 12;
    stats::Group node(&root, "node0");
    stats::Distribution lat(&node, "lat");
    lat.sample(2);
    lat.sample(4);
    stats::Histogram hist(&node, "hist");
    hist.init(2, 10.0);
    hist.sample(1);
    hist.sample(15);

    std::ostringstream os;
    root.dumpJson(os);
    wire::JsonValue v = parseJson(os.str());

    ASSERT_EQ(v.kind, wire::JsonValue::Kind::Object);
    EXPECT_DOUBLE_EQ(numberOf(at(at(v, "net"), "msgs")), 12.0);

    const wire::JsonValue &d = at(at(v, "node0"), "lat");
    EXPECT_DOUBLE_EQ(numberOf(at(d, "count")), 2.0);
    EXPECT_DOUBLE_EQ(numberOf(at(d, "mean")), 3.0);
    EXPECT_DOUBLE_EQ(numberOf(at(d, "min")), 2.0);
    EXPECT_DOUBLE_EQ(numberOf(at(d, "max")), 4.0);

    const wire::JsonValue &h = at(at(v, "node0"), "hist");
    EXPECT_DOUBLE_EQ(numberOf(at(h, "total")), 2.0);
    ASSERT_EQ(at(h, "buckets").items().size(), 2u);
    EXPECT_DOUBLE_EQ(numberOf(at(h, "buckets").items()[0]), 1.0);
    EXPECT_DOUBLE_EQ(numberOf(at(h, "buckets").items()[1]), 1.0);

    // Deterministic key order: children appear in registration order.
    ASSERT_EQ(v.members().size(), 2u);
    EXPECT_EQ(v.members()[0].key(), "net");
    EXPECT_EQ(v.members()[1].key(), "node0");
}

TEST(Stats, DumpJsonEscapesAndNonFinite)
{
    stats::Group root;
    stats::Scalar s(&root, "odd\"name\\x");
    s += 1.0 / 0.0;   // infinity must not leak into JSON
    std::ostringstream os;
    root.dumpJson(os);
    wire::JsonValue v = parseJson(os.str());
    EXPECT_DOUBLE_EQ(numberOf(at(v, "odd\"name\\x")), 0.0);
}

namespace
{

/** printf's "%.17g", with JSON's clamp of NaN, the infinities and
 *  magnitudes past 1e308 to 0. */
std::string
refJson(double v)
{
    if (!(v == v) || v > 1e308 || v < -1e308)
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // anonymous namespace

/** The renderer against a reference: JSON numbers against printf's
 *  "%.17g". */
TEST(Stats, RenderedNumbersMatchPrintf)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double values[] = {
        0.0, -0.0, 1.0, 123456.0, 1234567.0,
        9007199254740992.0,   // 2^53
        9007199254740994.0,   // 2^53 + 2
        1e15, 1e16, 1e17, 0.1, 1.0 / 3.0, 1e-7, 5e-324,
        1.7976931348623157e308, inf, -inf,
        std::numeric_limits<double>::quiet_NaN()};
    for (double v : values) {
        SCOPED_TRACE(refJson(v));
        stats::Group root;
        stats::Group node(&root, "n");
        stats::Scalar s(&node, "s");
        stats::Distribution d(&node, "d");
        stats::Histogram h(&node, "h");
        s = v;
        d.sample(v, 3);
        d.sample(0.5);
        h.init(3, v > 0 ? v : 1.0);
        h.sample(0, 1234567);
        h.sample(1e300, 9007199254740993ull);

        std::ostringstream json;
        json << "{\"n\":{\"s\":" << refJson(s.value())
             << ",\"d\":{\"count\":" << d.count()
             << ",\"mean\":" << refJson(d.mean())
             << ",\"min\":" << refJson(d.minValue())
             << ",\"max\":" << refJson(d.maxValue())
             << ",\"stddev\":" << refJson(d.stddev())
             << "},\"h\":{\"total\":" << h.totalCount()
             << ",\"width\":" << refJson(h.bucketWidth())
             << ",\"buckets\":[";
        for (unsigned i = 0; i < h.numBuckets(); ++i)
            json << (i ? "," : "") << h.bucketCount(i);
        json << "]}}}";

        std::string rendered;
        root.renderJson(rendered);
        EXPECT_EQ(rendered, json.str());

        // The stream wrapper emits the same bytes.
        std::ostringstream os_json;
        root.dumpJson(os_json);
        EXPECT_EQ(os_json.str(), json.str());
    }
}

namespace
{

/** std::to_chars' shortest-of-17-digits general form, with JSON's
 *  clamp of NaN, the infinities and magnitudes past 1e308 to 0. */
std::string
toChars17(double v)
{
    if (!(v == v) || v > 1e308 || v < -1e308)
        return "0";
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof(buf), v,
                             std::chars_format::general, 17);
    return std::string(buf, res.ptr);
}

std::string
appended(double v)
{
    std::string out;
    json::appendNumber(out, v);
    return out;
}

} // anonymous namespace

/** appendNumber against to_chars(general, 17), on the edges of its
 *  integer path (the sign of zero, 2^53, 10^k, the largest double
 *  below 1e17) and a seeded sweep of integral and other doubles. */
TEST(Json, AppendNumberMatchesToCharsGeneral17)
{
    const double p53 = 9007199254740992.0;   // 2^53
    std::vector<double> values = {
        0.0, -0.0, 1.0, -1.0, p53 - 1, p53, p53 + 1, p53 + 2,
        -(p53 - 1), -p53, -(p53 + 1), -(p53 + 2),
        99999999999999984.0, -99999999999999984.0, 1e17, -1e17,
        1e18, 9223372036854775808.0, 18446744073709551616.0, 1e300,
        0.5, -0.5, 0.1, 1.0 / 3.0, 1e-7, 5e-324, 4503599627370495.5,
        123456.789, -2.25, 1.7976931348623157e308};
    double p10 = 1.0;
    for (int k = 0; k <= 17; ++k, p10 *= 10) {
        for (double v : {p10 - 1, p10, p10 + 1})
            values.insert(values.end(), {v, -v});
    }
    for (double v : values) {
        SCOPED_TRACE(toChars17(v));
        EXPECT_EQ(appended(v), toChars17(v));
    }
    EXPECT_EQ(appended(-0.0), "-0");
    EXPECT_EQ(appended(99999999999999984.0), "99999999999999984");
    EXPECT_EQ(appended(1e17), "1e+17");

    Rng rng(2024);
    for (int i = 0; i < 200000; ++i) {
        const std::uint64_t bits = rng.next();
        double v;
        switch (i % 4) {
          case 0:   // any bit pattern
            v = std::bit_cast<double>(bits);
            break;
          case 1:   // an integer of up to 18 digits, either sign
            v = static_cast<double>(
                static_cast<std::int64_t>(bits % 1000000000000000000ull));
            break;
          case 2:   // a counter-sized integer
            v = static_cast<double>(bits >> (bits % 64));
            break;
          default:  // a fraction of a counter-sized integer
            v = static_cast<double>(bits >> (bits % 64)) /
                static_cast<double>(1 + (bits & 0xff));
            break;
        }
        if (bits & (1ull << 63))
            v = -v;
        if (appended(v) != toChars17(v)) {
            ADD_FAILURE() << "bits " << bits << ": " << appended(v)
                          << " != " << toChars17(v);
            break;
        }
    }
}
