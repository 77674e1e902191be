/**
 * @file
 * Seeded mutation fuzz of the request decoder. The valid request
 * lines tests/test_serve.cc sends, plus lines setting every kind of
 * app parameter, are mutated by byte flips, truncations, and
 * duplicated and deleted spans, then fed through
 * JsonParser::parseWhole and codec::decode (app parameters included)
 * as the server feeds a request line. Every input must come back as a spec or a non-empty
 * error (never a crash, a hang or a sanitizer report), and every
 * accepted spec must re-encode and decode to the same result-cache
 * key. The seed is fixed, so a failure reproduces exactly.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "exp/cache/result_cache.hh"
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
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n), n > 0. */
    std::size_t
    below(std::size_t n)
    {
        return static_cast<std::size_t>(next() % n);
    }
};

/** One or two stacked mutations of @p in. */
std::string
mutate(std::string in, SplitMix &rng)
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
            const std::string &src = corpus[rng.below(corpus.size())];
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

} // anonymous namespace

TEST(RequestFuzz, MutatedRequestsDecodeToASpecOrAnError)
{
    SplitMix rng{20260417};
    std::size_t unparsed = 0, rejected = 0, accepted = 0;
    for (int i = 0; i < 400'000; ++i) {
        const std::string line =
            mutate(corpus[rng.below(corpus.size())], rng);
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
