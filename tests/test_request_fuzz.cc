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
 * from their parse into exactly sized containers, and their mutants,
 * fed through
 * JsonParser::parseWhole and client::recordBytes as the client feeds
 * a response line, must each give a DOM or a non-empty error. The
 * seeds are fixed, so a failure reproduces exactly.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
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

/** Whether every container in @p v holds exactly as many slots as
 *  values: the parser sizes each one before filling it, so none
 *  regrew (and moved its values) during the parse. */
bool
exactlySized(const wire::JsonValue &v)
{
    if (v.members.capacity() != v.members.size() ||
        v.items.capacity() != v.items.size())
        return false;
    for (const auto &[k, m] : v.members)
        if (!exactlySized(m))
            return false;
    for (const wire::JsonValue &i : v.items)
        if (!exactlySized(i))
            return false;
    return true;
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

        std::string again;
        wire::renderJson(codec::toRequest(spec), again);
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

TEST(ResponseFuzz, ServedLinesRenderBackAndSizeExactly)
{
    const std::vector<std::string> &lines = servedLines();
    ASSERT_EQ(lines.size(), 3u);
    const char *want[] = {R"("nodes":16)", R"("machine_model":"snoop")",
                          R"("tag":[1,{"t":null}])"};
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string &line = lines[i];
        EXPECT_NE(line.find(want[i]), std::string::npos) << line;
        wire::JsonValue doc;
        wire::JsonParser p(line);
        ASSERT_TRUE(p.parseWhole(doc)) << p.err << " in " << line;
        std::string again;
        wire::renderJson(doc, again);
        EXPECT_EQ(again, line);
        EXPECT_TRUE(exactlySized(doc));
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
    wire::JsonParser p(line);
    ASSERT_TRUE(p.parseWhole(doc)) << p.err;
    EXPECT_TRUE(exactlySized(doc));
    ASSERT_EQ(doc.members.size(), 3u);
    EXPECT_EQ(doc.members[0].second.items.size(), 2u);
    EXPECT_EQ(doc.members[0].second.items[1].find("y")->raw, "\\\"},[");
    EXPECT_EQ(doc.members[1].second.items.size(), 3u);
    EXPECT_EQ(doc.members[2].first, "d\\");
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
