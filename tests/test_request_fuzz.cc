/**
 * @file
 * Seeded mutation fuzz of both sides of the serve wire. Requests: the
 * valid request lines tests/test_serve.cc sends, plus lines setting
 * every kind of app parameter, are mutated by byte flips, truncations,
 * and duplicated and deleted spans, then fed through
 * JsonParser::parseWhole and codec::decode (app parameters included)
 * as the server feeds a request line. Every input must come back as a
 * spec or a non-empty error (never a crash, a hang or a sanitizer
 * report), and every accepted spec must re-encode and decode to the
 * same result-cache key. Responses: lines a real in-process server
 * sent (a 16-node directory record, a snoop record, and an error
 * envelope echoing a non-string tag) must render back byte for byte
 * from a parse that allocates per document, not per value (counted by
 * the operator new this file replaces), and their mutants, fed through
 * JsonParser::parseWhole and client::recordBytes as the client feeds
 * a response line, must each give a DOM or a non-empty error. A parsed
 * document must outlive its line when copied or moved, and a reused
 * root must hold only its last line. The seeds are fixed, so a failure
 * reproduces exactly. Two tables pin the parser's language: malformed
 * lines with their exact first errors, and valid edge lines with the
 * exact lines they render back to.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "base/logging.hh"
#include "base/rng.hh"
#include "exp/cache/result_cache.hh"
#include "exp/client.hh"
#include "exp/serve.hh"
#include "exp/spec_codec.hh"
#include "exp/wire_json.hh"

using namespace swex;

namespace
{

/** The valid request lines tests/test_serve.cc sends, plus one that
 *  sets every field the codec knows, so spliced spans reach them. */
const std::vector<std::string> corpus = {
    R"({"op":"run","app":"worker","nodes":4,"protocol":"h2","seed":7,)"
    R"("tag":"t","canonical":true})",
    R"({"op":"run","app":"worker","nodes":4,"protocol":"h2","seed":1,)"
    R"("canonical":true})",
    R"({"op":"run","app":"worker","nodes":4,"protocol":"h5","seed":3,)"
    R"("canonical":true})",
    R"({"op":"run","app":"worker","nodes":8,"canonical":true})",
    R"({"op":"run","app":"worker","nodes":4,"canonical":true})",
    R"({"op":"run","app":"worker","nodes":4,"seed":2})",
    R"({"op":"sweep","app":"worker","nodes":4,"tag":"grid",)"
    R"("canonical":true,"grid":{"protocol":["h2","h5"],"seed":[1,2]}})",
    R"({"op":"sweep","app":"worker","nodes":4,"canonical":true,)"
    R"("cursor":0,"chunk":2,"grid":{"protocol":["h2","h5"],)"
    R"("seed":[1,2,3,4]}})",
    R"({"op":"stats"})",
    R"({"op":"shutdown"})",
    R"({"op":"run","id":"x","app":"worker","nodes":8,"protocol":"h2",)"
    R"("profile":"asm","victim":3,"seed":7,"params":{"wss":"4"},)"
    R"("seq":false,"audit":true,"track_sharing":false,"jitter":37,)"
    R"("jitter_seed":9,"fault_drop":20,"fault_dup":10,)"
    R"("fault_blackout":5,"fault_seed":11,"deadline":123456789,)"
    R"("local_bit":false,"perfect_ifetch":true,"parallel_inv":true})",
    R"({"op":"run","app":"falseshare","protocol":"mesi","bus":"rr"})",
    // App parameters of every reader kind (count, u64, double, bool)
    // across the apps, so mutants reach each one's parse errors.
    R"({"op":"run","app":"worker","params":{"wss":"3","iterations":"2",)"
    R"("think":"10"}})",
    R"({"op":"run","app":"tsp","nodes":8,"params":{"cities":"6",)"
    R"("seed":"3","expand_work":"40","collide":"true","frontier":"8"}})",
    R"({"op":"run","app":"aq","params":{"tolerance":"0.001",)"
    R"("max_depth":"8","eval_work":"500"}})",
    R"({"op":"run","app":"smgrid","params":{"fine":"9","levels":"2",)"
    R"("sweeps":"1","vcycles":"1","point_work":"5"}})",
    R"({"op":"run","app":"evolve","params":{"dims":"6","walks":"1",)"
    R"("seed":"9","step_work":"20"}})",
    R"({"op":"run","app":"water","params":{"molecules":"8","steps":"1",)"
    R"("seed":"4","pair_work":"7"}})",
    R"({"op":"run","app":"hotline","protocol":"mesi","params":)"
    R"({"iterations":"4","work":"10","jitter":"3"}})",
};

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

/** One or two stacked mutations of @p in; duplicated spans come from
 *  @p in itself or from a line of @p pool. */
std::string
mutate(std::string in, const std::vector<std::string> &pool,
       SplitMix &rng)
{
    const int rounds = 1 + static_cast<int>(rng.below(2));
    for (int r = 0; r < rounds; ++r) {
        const std::size_t n = in.size();
        switch (rng.below(5)) {
          case 0:   // flip one bit
            if (n > 0)
                in[rng.below(n)] ^=
                    static_cast<char>(1u << rng.below(8));
            break;
          case 1:   // replace one byte
            if (n > 0)
                in[rng.below(n)] = static_cast<char>(rng.below(256));
            break;
          case 2:   // truncate
            in.resize(rng.below(n + 1));
            break;
          case 3: {   // duplicate a span, from this line or another
            const std::string &src = pool[rng.below(pool.size())];
            const std::string &from = rng.below(2) == 0 ? in : src;
            if (from.empty())
                break;
            const std::size_t a = rng.below(from.size());
            const std::size_t len = 1 + rng.below(from.size() - a);
            const std::string span = from.substr(a, len);
            in.insert(rng.below(n + 1), span);
            break;
          }
          default:   // delete a span
            if (n > 0) {
                const std::size_t a = rng.below(n);
                in.erase(a, 1 + rng.below(n - a));
            }
            break;
        }
    }
    return in;
}

/** This thread's allocations, and the size of its largest, counted
 *  by the operator new family replaced at the end of this file. */
thread_local std::size_t allocations = 0;
thread_local std::size_t largestAllocation = 0;

/** What one parse of @p line into @p doc allocated. */
struct ParseCost
{
    bool ok;
    std::size_t allocations;
    std::size_t largest;   ///< bytes of the largest allocation
};

ParseCost
countedParse(const std::string &line, wire::JsonValue &doc)
{
    wire::JsonParser p(line);
    const std::size_t before = allocations;
    largestAllocation = 0;
    const bool ok = p.parseWhole(doc);
    EXPECT_TRUE(ok) << p.err << " in " << line.substr(0, 200);
    return {ok, allocations - before, largestAllocation};
}

/** The values under @p v, and how many of them keep a string or
 *  number too long for std::string's inline storage. */
void
tally(const wire::JsonValue &v, std::size_t &values,
      std::size_t &long_tokens)
{
    for (const wire::JsonValue &c :
         v.kind == wire::JsonValue::Kind::Object ? v.members() : v.items()) {
        ++values;
        if (c.raw.size() > std::string().capacity())
            ++long_tokens;
        tally(c, values, long_tokens);
    }
}

/** Expect @p cost to be one document's: the copy of the line, one
 *  array holding exactly the values under the root (the largest
 *  allocation), the parser's counts, and one buffer per long token. */
void
expectOneDocument(const ParseCost &cost, const wire::JsonValue &doc)
{
    std::size_t values = 0, long_tokens = 0;
    tally(doc, values, long_tokens);
    EXPECT_LE(cost.allocations, 3 + long_tokens);
    EXPECT_GE(cost.largest, values * sizeof(wire::JsonValue));
    EXPECT_LT(cost.largest, (values + 1) * sizeof(wire::JsonValue));
}

/** The response lines a server on a fresh socket sends for a 16-node
 *  directory run, a snooping-bus run, and a run whose tag is not a
 *  string; fetched once and shared by the response tests. */
const std::vector<std::string> &
servedLines()
{
    static const std::vector<std::string> lines = [] {
        setQuiet(true);
        std::string tmpl = ::testing::TempDir() + "swexfuzz-XXXXXX";
        const char *dir = ::mkdtemp(tmpl.data());
        EXPECT_NE(dir, nullptr);
        serve::ServeConfig cfg;
        cfg.socketPath = std::string(dir != nullptr ? dir : ".") + "/sock";
        cfg.jobs = 1;
        std::thread server([&] { serve::serveLoop(cfg); });

        client::ClientConfig ccfg;
        ccfg.address = cfg.socketPath;
        ccfg.maxAttempts = 20;
        client::ServeClient cli(ccfg);
        std::vector<std::string> out;
        for (const char *req : {
                 R"({"op":"run","tag":"dir","canonical":true,)"
                 R"("app":"worker","nodes":16,"protocol":"h5",)"
                 R"("params":{"wss":"8","iterations":"2"}})",
                 R"({"op":"run","tag":"bus","canonical":true,)"
                 R"("app":"falseshare","protocol":"mesi"})",
                 R"({"op":"run","tag":[1,{"t":null}],"app":"worker"})"})
            out.push_back(cli.rpcRetry(req).line);
        cli.rpcRetry(R"({"op":"shutdown"})");
        server.join();
        ::unlink(cfg.socketPath.c_str());
        if (dir != nullptr)
            ::rmdir(dir);
        return out;
    }();
    return lines;
}

} // anonymous namespace

// The parser's language, pinned: each malformed line fails with its
// exact first error, whatever produced the DOM.
TEST(WireJson, MalformedLinesFailWithTheirFirstError)
{
    const std::string deep65 = std::string(65, '[') + "1" +
                               std::string(65, ']');
    const struct
    {
        std::string line, err;
    } cases[] = {
        {R"({"a":1,"a":2})", "duplicate key 'a'"},
        {R"({"x":[{"b":true,"c":null,"b":false}]})", "duplicate key 'b'"},
        {R"({"a":1,"\u0061":2})", "duplicate key 'a'"},
        {R"({"a":1,"a":[)", "unexpected end of input"},
        {deep65, "nesting deeper than 64 levels"},
        {R"({"a":1} x)", "trailing characters after JSON value"},
        {R"([1]])", "trailing characters after JSON value"},
        {R"({"a":"abc)", "unterminated string"},
        {R"(["abc\)", "dangling escape"},
        {R"(["\u12G4"])", "bad \\u escape"},
        {R"(["\u12)", "truncated \\u escape"},
        {R"(["\q"])", "unknown escape"},
        {R"({"a" 1})", "expected ':'"},
        {R"({"a":1 "b":2})", "expected ',' or '}'"},
        {R"([1 2])", "expected ',' or ']'"},
        {R"([1,2)", "expected ',' or ']'"},
        {R"({"a":1)", "expected ',' or '}'"},
        {R"({1:2})", "expected string"},
        {R"([1,])", "unexpected character"},
        {R"([tru])", "expected 'true'"},
        {R"({"a":nul})", "expected 'null'"},
        {"", "unexpected end of input"},
        {"  ", "unexpected end of input"},
    };
    for (const auto &c : cases) {
        wire::JsonValue v;
        wire::JsonParser p(c.line);
        EXPECT_FALSE(p.parseWhole(v)) << c.line;
        EXPECT_EQ(p.err, c.err) << c.line;
    }
}

// Valid edge lines, each with the exact line renderJson gives back.
TEST(WireJson, EdgeLinesRenderAsPinned)
{
    const std::string deep64 = std::string(64, '[') + "1" +
                               std::string(64, ']');
    const struct
    {
        std::string line, rendered;
    } cases[] = {
        {R"(["\u00e9","é","\u20ac"])", R"(["é","é","€"])"},
        {deep64, deep64},
        {R"([-0,1e-7,18446744073709551615,-1.5E+3])",
         R"([-0,1e-7,18446744073709551615,-1.5E+3])"},
        {" { \"a\" : [ 1 , { } , [ ] ] , \"\" : null }\r\n",
         R"({"a":[1,{},[]],"":null})"},
        {R"({"k\"\\\/\b\f\n\r\t":"\u0001"})",
         R"({"k\"\\/\u0008\u000c\n\u000d\t":"\u0001"})"},
        {R"("just a string")", R"("just a string")"},
        {"true", "true"},
        {R"({"t":true,"f":false})", R"({"t":true,"f":false})"},
    };
    for (const auto &c : cases) {
        wire::JsonValue v;
        wire::JsonParser p(c.line);
        ASSERT_TRUE(p.parseWhole(v)) << p.err << " in " << c.line;
        std::string out;
        wire::renderJson(v, out);
        EXPECT_EQ(out, c.rendered) << c.line;
    }
}

TEST(RequestFuzz, MutatedRequestsDecodeToASpecOrAnError)
{
    SplitMix rng{20260417};
    std::size_t unparsed = 0, rejected = 0, accepted = 0;
    for (int i = 0; i < 400'000; ++i) {
        const std::string line =
            mutate(corpus[rng.below(corpus.size())], corpus, rng);
        wire::JsonValue req;
        wire::JsonParser p(line);
        if (!p.parseWhole(req)) {
            ASSERT_FALSE(p.err.empty()) << line;
            ++unparsed;
            continue;
        }
        if (req.kind != wire::JsonValue::Kind::Object) {
            ++unparsed;   // the server answers "not a JSON object"
            continue;
        }
        ExperimentSpec spec;
        const std::string err = codec::decode(req, "serve", spec);
        if (!err.empty()) {
            ++rejected;
            continue;
        }
        ++accepted;

        const std::string again = codec::toRequest(spec).line();
        wire::JsonValue req2;
        wire::JsonParser p2(again);
        ASSERT_TRUE(p2.parseWhole(req2)) << p2.err << " in " << again;
        ExperimentSpec back;
        ASSERT_EQ(codec::decode(req2, "other", back), "")
            << "input " << line << "\nre-encoded " << again;
        ASSERT_EQ(cache::ResultCache::specKey(back),
                  cache::ResultCache::specKey(spec))
            << "input " << line << "\nre-encoded " << again;
    }
    // Each outcome must actually occur, or the fuzz tests nothing.
    EXPECT_GT(unparsed, 1000u);
    EXPECT_GT(rejected, 1000u);
    EXPECT_GT(accepted, 1000u);
    std::printf("unparsed %zu, rejected %zu, accepted %zu\n", unparsed,
                rejected, accepted);
}

TEST(ResponseFuzz, ServedLinesRenderBackFromOneDocument)
{
    const std::vector<std::string> &lines = servedLines();
    ASSERT_EQ(lines.size(), 3u);
    const char *want[] = {R"("nodes":16)", R"("machine_model":"snoop")",
                          R"("tag":[1,{"t":null}])"};
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string &line = lines[i];
        EXPECT_NE(line.find(want[i]), std::string::npos) << line;
        wire::JsonValue doc;
        const ParseCost cost = countedParse(line, doc);
        ASSERT_TRUE(cost.ok);
        std::string again;
        wire::renderJson(doc, again);
        EXPECT_EQ(again, line);
        SCOPED_TRACE(line.substr(0, 200));
        expectOneDocument(cost, doc);
        std::printf("%zu-byte line: %zu allocations\n", line.size(),
                    cost.allocations);
    }
    std::string rec;
    EXPECT_TRUE(client::recordBytes(lines[0], rec));
    EXPECT_GT(rec.size(), 10'000u);
}

// The sizing pass must skip string bodies, escaped quotes and
// backslash runs included: a comma or bracket inside a string would
// otherwise miscount the container around it.
TEST(ResponseFuzz, SizingSkipsStringBodies)
{
    const std::string line =
        R"({"a,b":["x]",{"y":"\\\"},["}],"c":[1,[2,3],{}],"d\\":"[,{"})";
    wire::JsonValue doc;
    const ParseCost cost = countedParse(line, doc);
    ASSERT_TRUE(cost.ok);
    expectOneDocument(cost, doc);
    ASSERT_EQ(doc.members().size(), 3u);
    EXPECT_EQ(doc.members()[0].items().size(), 2u);
    EXPECT_EQ(doc.members()[0].items()[1].find("y")->raw, "\\\"},[");
    EXPECT_EQ(doc.members()[1].items().size(), 3u);
    EXPECT_EQ(doc.members()[2].key(), "d\\");
}

// A parsed document owns its bytes: a copy or a move of a response,
// or a copy of one of its values, outlives the original and its line.
TEST(ResponseFuzz, DocumentsOutliveTheirLines)
{
    const std::string &served = servedLines()[0];
    std::string want;
    {
        wire::JsonValue doc;
        ASSERT_TRUE(countedParse(served, doc).ok);
        wire::renderJson(*doc.find("record")->find("stats"), want);
    }
    ASSERT_GT(want.size(), 1000u);
    ASSERT_NE(served.find(want), std::string::npos);

    auto received = [&] {
        auto r = std::make_unique<client::Response>();
        r->line = served;
        EXPECT_TRUE(wire::JsonParser(r->line).parseWhole(r->doc));
        return r;
    };
    auto first = received(), second = received();
    client::Response copy = *first;
    client::Response moved = std::move(*second);
    EXPECT_EQ(second->doc.find("record"), nullptr);   // left null
    wire::JsonValue stats = *first->doc.find("record")->find("stats");
    first.reset();
    second.reset();

    for (const wire::JsonValue *v :
         {copy.doc.find("record"), moved.doc.find("record")}) {
        ASSERT_NE(v, nullptr);
        ASSERT_NE(v->find("stats"), nullptr);
        std::string out;
        wire::renderJson(*v->find("stats"), out);
        EXPECT_EQ(out, want);
    }
    std::string out;
    wire::renderJson(stats, out);
    EXPECT_EQ(out, want);
}

// The parser keeps a view of its line until parseWhole() copies it,
// so a temporary line, which would dangle, does not compile.
static_assert(!std::is_constructible_v<wire::JsonParser, std::string>);
static_assert(std::is_constructible_v<wire::JsonParser, const std::string &>);

// A root reused across lines holds only the last line, whatever the
// line before it left behind, a failed parse's partial document
// included: no stale key reads as a duplicate or answers a find().
TEST(ResponseFuzz, AReusedRootResetsEvenAfterAFailedParse)
{
    wire::JsonValue root;
    ASSERT_TRUE(countedParse(servedLines()[0], root).ok);
    ASSERT_NE(root.find("record"), nullptr);

    const std::string partial = R"({"a":1,"record")";
    wire::JsonParser bad(partial);
    EXPECT_FALSE(bad.parseWhole(root));
    EXPECT_EQ(bad.err, "expected ':'");
    EXPECT_EQ(root.find("a")->raw, "1");   // the part parsed, only

    for (const std::string line :
         {R"({"record":7,"a":[true]})", R"("plain")", R"({})"}) {
        ASSERT_TRUE(countedParse(line, root).ok);
        std::string out;
        wire::renderJson(root, out);
        EXPECT_EQ(out, line);
    }
    EXPECT_EQ(root.find("record"), nullptr);
    EXPECT_TRUE(root.members().empty());
}

TEST(ResponseFuzz, MutatedServedLinesParseOrFail)
{
    const std::vector<std::string> &lines = servedLines();
    ASSERT_EQ(lines.size(), 3u);
    SplitMix rng{20261017};
    std::size_t unparsed = 0, parsed = 0, records = 0;
    for (int i = 0; i < 20'000; ++i) {
        const std::string line =
            mutate(lines[rng.below(lines.size())], lines, rng);
        std::string rec;
        if (client::recordBytes(line, rec)) {
            ASSERT_LT(rec.size(), line.size());
            ++records;
        }
        wire::JsonValue doc;
        wire::JsonParser p(line);
        if (!p.parseWhole(doc)) {
            ASSERT_FALSE(p.err.empty()) << line;
            ++unparsed;
            continue;
        }
        ++parsed;
        // Whatever DOM a mutant yields renders to a line that parses
        // back to the same rendering.
        std::string once, twice;
        wire::renderJson(doc, once);
        wire::JsonValue again;
        wire::JsonParser p2(once);
        ASSERT_TRUE(p2.parseWhole(again)) << p2.err << " in " << once;
        wire::renderJson(again, twice);
        ASSERT_EQ(twice, once);
    }
    EXPECT_GT(unparsed, 1000u);
    EXPECT_GT(parsed, 1000u);
    EXPECT_GT(records, 1000u);
    std::printf("unparsed %zu, parsed %zu, record spans %zu\n", unparsed,
                parsed, records);
}

// Every allocation the tests above make goes through these, so a
// parse's allocations can be counted. Each new is paired with its
// delete on malloc and free, which is what a sanitizer's own
// replacements expect to see. The three that call malloc and free
// stay out of line, so the compiler never sees free() meet a pointer
// from operator new, or operator delete one from malloc.
[[gnu::noinline]] void *
operator new(std::size_t n)
{
    ++allocations;
    largestAllocation = std::max(largestAllocation, n);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    ++allocations;
    largestAllocation = std::max(largestAllocation, n);
    return std::malloc(n == 0 ? 1 : n);
}

void *operator new[](std::size_t n) { return ::operator new(n); }

void *
operator new[](std::size_t n, const std::nothrow_t &t) noexcept
{
    return ::operator new(n, t);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

void operator delete[](void *p) noexcept { ::operator delete(p); }
void operator delete(void *p, std::size_t) noexcept { ::operator delete(p); }

void
operator delete[](void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    ::operator delete(p);
}
