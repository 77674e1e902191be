/**
 * @file
 * Tests for the spec codec (exp/spec_codec.hh): request and
 * command-line round trips keep the result-cache key, every field's
 * error text, and the wire's hardware toggles reaching a served run.
 * Requests here are spelled by hand, independently of the codec's
 * field table.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "exp/cache/result_cache.hh"
#include "exp/client.hh"
#include "exp/runner.hh"
#include "exp/serve.hh"
#include "exp/spec_codec.hh"
#include "exp/wire_json.hh"

using namespace swex;

namespace
{

wire::JsonValue
parse(const std::string &line)
{
    wire::JsonValue v;
    wire::JsonParser p(line);
    EXPECT_TRUE(p.parseWhole(v)) << p.err << " in " << line;
    return v;
}

/** decode() of a hand-spelled request that must be valid. */
ExperimentSpec
decoded(const std::string &line, const std::string &default_id = "t")
{
    ExperimentSpec spec;
    EXPECT_EQ(codec::decode(parse(line), default_id, spec), "") << line;
    return spec;
}

/** The error decode() gives for @p line ("" if it decodes). */
std::string
decodeError(const std::string &line)
{
    ExperimentSpec spec;
    return codec::decode(parse(line), "t", spec);
}

/** Specs that together set every field of the codec's table. */
std::vector<std::string>
coveringRequests()
{
    return {
        // Directory: jitter, faults, deadline, params, audit, the asm
        // profile and all three hardware toggles.
        "{\"id\":\"dir\",\"app\":\"worker\",\"nodes\":8,"
        "\"protocol\":\"h2\",\"profile\":\"asm\",\"victim\":3,"
        "\"seed\":7,\"params\":{\"wss\":\"4\",\"iterations\":2},"
        "\"audit\":true,\"jitter\":37,\"jitter_seed\":9,"
        "\"fault_drop\":20,\"fault_dup\":10,\"fault_blackout\":5,"
        "\"fault_seed\":11,\"deadline\":123456789,"
        "\"local_bit\":false,\"perfect_ifetch\":true,"
        "\"parallel_inv\":true}",
        "{\"id\":\"snoop\",\"app\":\"falseshare\",\"nodes\":4,"
        "\"protocol\":\"mesi\",\"bus\":\"rr\"}",
        "{\"id\":\"seq\",\"app\":\"tsp\",\"protocol\":\"dir1sw\","
        "\"seq\":true}",
        "{\"id\":\"sharing\",\"app\":\"worker\",\"protocol\":\"full\","
        "\"track_sharing\":true}",
    };
}

/** Apply a command line's spec flags to a request, as swex_cli does. */
codec::Request
requestFromCommandLine(const std::string &line)
{
    std::vector<std::string> argv;
    std::istringstream is(line);
    for (std::string tok; is >> tok;)
        argv.push_back(tok);
    codec::Request req;
    EXPECT_FALSE(argv.empty());
    EXPECT_EQ(argv[0], "swex_cli");
    for (std::size_t i = 1; i < argv.size(); ++i) {
        const std::string flag = argv[i];
        const int n = codec::flagValues(flag);
        EXPECT_GE(n, 0) << "not a spec flag: " << flag;
        std::string value;
        if (n > 0 && i + 1 < argv.size())
            value = argv[++i];
        if (n >= 0) {
            EXPECT_EQ(codec::setFlag(req, flag, value), "") << flag;
        }
    }
    return req;
}

} // anonymous namespace

TEST(SpecCodec, JsonRoundTripKeepsTheSpecKey)
{
    std::set<std::string> emitted;
    for (const std::string &line : coveringRequests()) {
        const ExperimentSpec spec = decoded(line);
        const std::string rendered = codec::toRequest(spec).line();
        const wire::JsonValue req = parse(rendered);
        for (const wire::JsonValue &m : req.members())
            emitted.insert(std::string(m.key()));
        const ExperimentSpec back = decoded(rendered, "other");
        EXPECT_EQ(cache::ResultCache::specKey(back),
                  cache::ResultCache::specKey(spec))
            << line << "\n -> " << rendered;
    }
    // Together the requests exercise the whole field table.
    for (const char *key :
         {"id", "app", "nodes", "protocol", "bus", "profile", "victim",
          "seed", "params", "seq", "audit", "track_sharing", "jitter",
          "jitter_seed", "fault_drop", "fault_dup", "fault_blackout",
          "fault_seed", "deadline", "local_bit", "perfect_ifetch",
          "parallel_inv"})
        EXPECT_TRUE(emitted.count(key)) << "never encoded: " << key;
}

TEST(SpecCodec, DefaultsAndCrossFieldRules)
{
    const ExperimentSpec d = decoded("{}", "serve");
    EXPECT_EQ(d.id, "serve");
    EXPECT_EQ(d.app, "worker");
    EXPECT_EQ(d.nodes, 16);
    EXPECT_EQ(d.victimEntries, 6u);
    EXPECT_EQ(d.seed, 12345u);
    EXPECT_EQ(d.protocol.name(), ProtocolConfig::hw(5).name());
    EXPECT_TRUE(d.protocol.localBit);
    EXPECT_EQ(d.deadline, 0u);

    // Any fault rate without a deadline gets the 50M-cycle guard; an
    // explicit deadline stands.
    EXPECT_EQ(decoded("{\"fault_dup\":1}").deadline, 50'000'000u);
    EXPECT_EQ(decoded("{\"fault_dup\":1,\"deadline\":7}").deadline, 7u);

    const ExperimentSpec s = decoded("{\"protocol\":\"dragon\"}");
    EXPECT_EQ(s.machineModel, MachineModel::Snoop);
    EXPECT_EQ(s.snoopProtocol, SnoopProtocol::Dragon);
    EXPECT_EQ(s.busArbitration, BusArbitration::Fifo);

    // local_bit:false clears the pointer; h0 has none to clear.
    EXPECT_FALSE(decoded("{\"local_bit\":false}").protocol.localBit);
    EXPECT_FALSE(decoded("{\"protocol\":\"h0\"}").protocol.localBit);

    // Envelope keys are skipped, whatever their values.
    EXPECT_EQ(decodeError("{\"op\":\"run\",\"tag\":\"x\","
                          "\"canonical\":true,\"cursor\":3,"
                          "\"chunk\":1}"),
              "");
}

TEST(SpecCodec, CommandLineRoundTripKeepsTheSpecKey)
{
    // The wire-only fields (seq, track_sharing) have no flag; the
    // first two covering specs carry none of them.
    const std::vector<std::string> reqs = coveringRequests();
    for (std::size_t i = 0; i < 2; ++i) {
        const ExperimentSpec spec = decoded(reqs[i]);
        const std::string line = codec::toCommandLine(spec);
        ExperimentSpec back;
        ASSERT_EQ(codec::decode(requestFromCommandLine(line), spec.id,
                                back),
                  "")
            << line;
        EXPECT_EQ(cache::ResultCache::specKey(back),
                  cache::ResultCache::specKey(spec))
            << line;
    }
    const std::string dir = codec::toCommandLine(decoded(reqs[0]));
    EXPECT_NE(dir.find(" --faults 20,10,5 "), std::string::npos) << dir;
    EXPECT_NE(dir.find(" --no-local-bit"), std::string::npos) << dir;
    EXPECT_NE(dir.find(" --param iterations=2"), std::string::npos)
        << dir;
}

TEST(SpecCodec, CommandLineShorthands)
{
    codec::Request req;
    EXPECT_EQ(codec::setFlag(req, "--wss", "3"), "");
    EXPECT_EQ(codec::setFlag(req, "--iters", "2"), "");
    EXPECT_EQ(codec::setFlag(req, "--faults", "7"), "");
    EXPECT_EQ(codec::setFlag(req, "--nodes", "4"), "");
    EXPECT_EQ(codec::setFlag(req, "--nodes", "8"), "");   // last wins
    ExperimentSpec spec;
    ASSERT_EQ(codec::decode(req, "cli", spec), "");
    EXPECT_EQ(spec.params.at("wss"), "3");
    EXPECT_EQ(spec.params.at("iterations"), "2");
    EXPECT_EQ(spec.faultDropPerMille, 7u);
    EXPECT_EQ(spec.faultDupPerMille, 0u);
    EXPECT_EQ(spec.nodes, 8);
    // A field keeps the place it was first set in.
    EXPECT_EQ(req.line(),
              R"({"params":{"wss":"3","iterations":"2"},"fault_drop":7,)"
              R"("fault_dup":0,"fault_blackout":0,"nodes":8})");

    EXPECT_EQ(codec::flagValues("--audit"), 0);
    EXPECT_EQ(codec::flagValues("--seed"), 1);
    EXPECT_EQ(codec::flagValues("--seq"), -1);   // a CLI action
    EXPECT_NE(codec::setFlag(req, "--param", "novalue"), "");
    EXPECT_NE(codec::setFlag(req, "--faults", "1,2,3,4"), "");

    // Digits only, as on the wire.
    EXPECT_EQ(codec::setFlag(req, "--nodes", "+16"), "");
    EXPECT_EQ(codec::decode(req, "cli", spec),
              "bad value for 'nodes' (want an integer in range)");
}

TEST(SpecCodec, ErrorTableKeepsEveryFieldsText)
{
    const std::string intRange = " (want an integer in range)";
    const std::string aBool = " (want a bool)";
    struct Case
    {
        std::string request;
        std::string error;
    };
    const std::vector<Case> cases = {
        {"{\"id\":5}", "bad value for 'id' (want a string)"},
        {"{\"app\":true}", "bad value for 'app' (want a string)"},
        {"{\"app\":\"bogus\"}", "unknown app 'bogus'"},
        {"{\"params\":[]}",
         "bad value for 'params' (want an object of string values)"},
        {"{\"params\":{\"wss\":[4]}}",
         "bad value for params.wss (want string or number)"},
        {"{\"protocol\":1}", "bad value for 'protocol' (want a string)"},
        {"{\"protocol\":\"bogus\"}", "unknown protocol 'bogus'"},
        {"{\"protocol\":\"mesi\",\"bus\":1}",
         "bad value for 'bus' (want fifo or rr)"},
        {"{\"protocol\":\"mesi\",\"bus\":\"lifo\"}",
         "bad value for 'bus' (want fifo or rr)"},
        {"{\"profile\":1}", "bad value for 'profile' (want c or asm)"},
        {"{\"profile\":\"ASM\"}", "bad value for 'profile' (want c or asm)"},
        {"{\"nodes\":\"16\"}", "bad value for 'nodes'" + intRange},
        {"{\"nodes\":0}", "bad value for 'nodes'" + intRange},
        {"{\"nodes\":257}", "bad value for 'nodes'" + intRange},
        {"{\"victim\":-1}", "bad value for 'victim'" + intRange},
        {"{\"victim\":4097}", "bad value for 'victim'" + intRange},
        {"{\"seed\":1.5}", "bad value for 'seed'" + intRange},
        {"{\"seed\":18446744073709551616}",
         "bad value for 'seed'" + intRange},
        {"{\"seq\":1}", "bad value for 'seq'" + aBool},
        {"{\"audit\":\"yes\"}", "bad value for 'audit'" + aBool},
        {"{\"track_sharing\":null}",
         "bad value for 'track_sharing'" + aBool},
        {"{\"jitter\":\"1\"}", "bad value for 'jitter'" + intRange},
        {"{\"jitter\":1048577}", "bad value for 'jitter'" + intRange},
        {"{\"jitter_seed\":{}}", "bad value for 'jitter_seed'" + intRange},
        {"{\"jitter_seed\":18446744073709551616}",
         "bad value for 'jitter_seed'" + intRange},
        {"{\"fault_drop\":true}", "bad value for 'fault_drop'" + intRange},
        {"{\"fault_drop\":1001}", "bad value for 'fault_drop'" + intRange},
        {"{\"fault_dup\":1e3}", "bad value for 'fault_dup'" + intRange},
        {"{\"fault_dup\":1001}", "bad value for 'fault_dup'" + intRange},
        {"{\"fault_blackout\":[]}",
         "bad value for 'fault_blackout'" + intRange},
        {"{\"fault_blackout\":1001}",
         "bad value for 'fault_blackout'" + intRange},
        {"{\"fault_seed\":\"x\"}", "bad value for 'fault_seed'" + intRange},
        {"{\"fault_seed\":99999999999999999999}",
         "bad value for 'fault_seed'" + intRange},
        {"{\"deadline\":-5}", "bad value for 'deadline'" + intRange},
        {"{\"deadline\":18446744073709551616}",
         "bad value for 'deadline'" + intRange},
        {"{\"local_bit\":0}", "bad value for 'local_bit'" + aBool},
        {"{\"perfect_ifetch\":\"true\"}",
         "bad value for 'perfect_ifetch'" + aBool},
        {"{\"parallel_inv\":[]}", "bad value for 'parallel_inv'" + aBool},
        {"{\"nodes\":4,\"bogus\":1}", "unknown field 'bogus'"},
        {"{\"grid\":{}}", "unknown field 'grid'"},
        {"{\"protocol\":\"mesi\",\"jitter\":5}",
         "the snooping bus models no network: drop jitter/fault fields"},
        {"{\"protocol\":\"moesi\",\"fault_blackout\":1}",
         "the snooping bus models no network: drop jitter/fault fields"},
        {"{\"protocol\":\"mesi\",\"track_sharing\":true}",
         "the snooping bus has no directory to track sharing: drop "
         "track_sharing"},
        {"{\"bus\":\"rr\"}", "'bus' applies to snooping protocols only"},
        // App parameters, one per reader kind.
        {"{\"params\":{\"bogus\":\"1\"}}",
         "worker: unknown parameter 'bogus' (=1)"},
        {"{\"app\":\"tsp\",\"params\":{\"cities\":\"abc\"}}",
         "tsp: parameter cities=abc is not an integer"},
        {"{\"app\":\"aq\",\"params\":{\"max_depth\":\"-1\"}}",
         "aq: parameter max_depth=-1 is not a non-negative count"},
        {"{\"params\":{\"think\":\"-5\"}}",
         "worker: parameter think=-5 must be non-negative"},
        // Integers are decimal digits only, as on the wire.
        {"{\"params\":{\"wss\":\"0x8\"}}",
         "worker: parameter wss=0x8 is not an integer"},
        {"{\"params\":{\"wss\":\" 8\"}}",
         "worker: parameter wss= 8 is not an integer"},
        {"{\"params\":{\"wss\":\"+8\"}}",
         "worker: parameter wss=+8 is not an integer"},
        {"{\"params\":{\"wss\":\"2147483648\"}}",
         "worker: parameter wss=2147483648 is out of range"},
        {"{\"params\":{\"think\":\"18446744073709551616\"}}",
         "worker: parameter think=18446744073709551616 is out of range"},
        {"{\"app\":\"aq\",\"params\":{\"tolerance\":\"1e\"}}",
         "aq: parameter tolerance=1e is not a number"},
        {"{\"app\":\"tsp\",\"params\":{\"collide\":\"maybe\"}}",
         "tsp: parameter collide=maybe is not a boolean"},
        // ... and the ranges the apps assert.
        {"{\"nodes\":4,\"params\":{\"wss\":\"5\"}}",
         "worker: parameter wss=5 must be in [1, nodes=4]"},
        {"{\"app\":\"tsp\",\"params\":{\"cities\":\"2\"}}",
         "tsp: parameter cities=2 must be in [3, 16]"},
        {"{\"app\":\"smgrid\",\"params\":{\"fine\":\"8\"}}",
         "smgrid: parameter fine=8 must be odd and at least 5"},
        {"{\"app\":\"smgrid\",\"params\":{\"sweeps\":\"0\"}}",
         "smgrid: parameter sweeps=0 must be at least 1"},
        {"{\"app\":\"smgrid\",\"params\":{\"vcycles\":\"0\"}}",
         "smgrid: parameter vcycles=0 must be at least 1"},
        {"{\"app\":\"aq\",\"params\":{\"tolerance\":\"1e-300\","
         "\"max_depth\":\"20\"}}",
         "aq: parameter tolerance=1e-300 refines past 1048576 rectangles "
         "by max_depth=20: raise tolerance or lower max_depth"},
        {"{\"app\":\"evolve\",\"params\":{\"dims\":\"21\"}}",
         "evolve: parameter dims=21 must be in [4, 20]"},
    };
    for (const Case &c : cases)
        EXPECT_EQ(decodeError(c.request), c.error) << c.request;
}

TEST(SpecCodec, ServedRunHonorsTheHardwareToggles)
{
    setQuiet(true);
    std::string tmpl = ::testing::TempDir() + "swexcodec-XXXXXX";
    const char *dir = ::mkdtemp(tmpl.data());
    ASSERT_NE(dir, nullptr);
    serve::ServeConfig cfg;
    cfg.socketPath = std::string(dir) + "/sock";
    cfg.jobs = 1;
    int rc = -1;
    std::thread server([&] { rc = serve::serveLoop(cfg); });

    client::ClientConfig ccfg;
    ccfg.address = cfg.socketPath;
    ccfg.maxAttempts = 20;
    client::ServeClient cli(ccfg);
    const std::string base =
        "{\"op\":\"run\",\"canonical\":true,\"app\":\"worker\","
        "\"nodes\":4,\"protocol\":\"h2\","
        "\"params\":{\"wss\":\"2\",\"iterations\":\"2\"}";
    const std::string toggles =
        ",\"local_bit\":false,\"perfect_ifetch\":true,"
        "\"parallel_inv\":true";
    const client::Response resp = cli.rpcRetry(base + toggles + "}");
    const client::Response plain = cli.rpcRetry(base + "}");
    cli.rpcRetry("{\"op\":\"shutdown\"}");
    server.join();
    EXPECT_EQ(rc, 0);
    ::unlink(cfg.socketPath.c_str());
    ::rmdir(dir);
    ASSERT_TRUE(resp.ok) << resp.error;
    ASSERT_TRUE(plain.ok) << plain.error;

    ExperimentSpec spec;
    spec.id = "serve";
    spec.app = "worker";
    spec.nodes = 4;
    spec.victimEntries = 6;
    spec.protocol = ProtocolConfig::hw(2);
    spec.protocol.localBit = false;
    spec.perfectIfetch = true;
    spec.parallelInv = true;
    spec.params = {{"wss", "2"}, {"iterations", "2"}};
    std::ostringstream want;
    Runner(/*fail_fast=*/false).execute(spec).writeJson(want, true);

    std::string got, got_plain;
    ASSERT_TRUE(client::recordBytes(resp.line, got));
    ASSERT_TRUE(client::recordBytes(plain.line, got_plain));
    EXPECT_EQ(got, want.str());
    EXPECT_NE(got, got_plain) << "the toggles changed nothing";
}
