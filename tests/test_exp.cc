/**
 * @file
 * Tests for the experiment layer: the app registry constructs and
 * validates every built-in workload, the runner produces verified
 * deterministic records, and the swex-run-v1 serialization is valid
 * JSON with the documented fields.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "base/binary_io.hh"
#include "base/logging.hh"
#include "core/spectrum.hh"
#include "exp/pool.hh"
#include "exp/runner.hh"

#include "json_helpers.hh"

using namespace swex;

namespace
{

/** A tiny 4-node spec for one registered app, per smokeParams. */
ExperimentSpec
smokeSpec(const std::string &app, ProtocolConfig proto)
{
    return ExperimentSpec{
        .id = "test/" + app,
        .app = app,
        .params = AppRegistry::instance().entry(app).smokeParams,
        .protocol = proto,
        .nodes = 4,
        .victimEntries = 6};
}

class RegistrySmoke : public ::testing::TestWithParam<std::string>
{};

} // anonymous namespace

TEST(Registry, HasTheBuiltInApps)
{
    const auto names = AppRegistry::instance().names();
    ASSERT_EQ(names.size(), 10u);
    EXPECT_EQ(names.front(), "worker");
    for (const char *n :
         {"tsp", "aq", "smgrid", "evolve", "mp3d", "water",
          "falseshare", "padded", "hotline"}) {
        EXPECT_TRUE(AppRegistry::instance().contains(n)) << n;
    }
    EXPECT_FALSE(AppRegistry::instance().contains("nosuch"));
}

TEST(Registry, FactoryAppliesParams)
{
    auto app = AppRegistry::instance().make(
        "worker", {{"wss", "3"}, {"iterations", "4"}}, 4);
    ASSERT_NE(app, nullptr);
    EXPECT_STREQ(app->name(), "WORKER");
}

TEST_P(RegistrySmoke, RunsVerifiedUnderH5)
{
    setQuiet(true);
    Runner runner;
    const RunRecord &r =
        runner.run(smokeSpec(GetParam(), ProtocolConfig::hw(5)));
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.simCycles, 0u);
    EXPECT_EQ(r.nodes, 4);
}

TEST_P(RegistrySmoke, RunsVerifiedUnderFullMap)
{
    setQuiet(true);
    Runner runner;
    const RunRecord &r =
        runner.run(smokeSpec(GetParam(), ProtocolConfig::fullMap()));
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.simCycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, RegistrySmoke,
    ::testing::ValuesIn(AppRegistry::instance().names()));

TEST(Runner, DeterministicAcrossRepeats)
{
    setQuiet(true);
    Runner runner;
    ExperimentSpec spec = smokeSpec("worker", ProtocolConfig::hw(5));
    Tick a = runner.run(spec).simCycles;
    Tick b = runner.run(spec).simCycles;
    EXPECT_EQ(a, b);
}

/**
 * The figure anchors the docs quote (swex_cli defaults: victim 6,
 * seed 12345, h5), pinned. Each runs Direct, then Record, then an
 * exact-config Replay of that recording; all three must land on the
 * pinned cycle count and the direct memory image, so any change to
 * simulated timing or to the Mem-API recorder hooks moves them.
 */
TEST(Runner, FigureAnchorsHoldDirectRecordAndReplay)
{
    setQuiet(true);
    struct Anchor
    {
        const char *app;
        int nodes;
        AppParams params;
        Tick cycles;
    };
    const Anchor anchors[] = {
        {"worker", 16, {{"wss", "8"}}, 20929},
        {"aq", 16, AppRegistry::instance().entry("aq").smokeParams,
         29562},
        {"mp3d", 64, {}, 60935},
        {"tsp", 16, {}, 941053},
    };
    std::string tmpl = ::testing::TempDir() + "swexanchor-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    ASSERT_NE(mkdtemp(buf.data()), nullptr);
    const std::string dir = buf.data();

    Runner runner;
    for (const Anchor &a : anchors) {
        ExperimentSpec spec{.id = std::string("anchor/") + a.app,
                            .app = a.app,
                            .params = a.params,
                            .protocol = ProtocolConfig::hw(5),
                            .nodes = a.nodes,
                            .victimEntries = 6,
                            .traceDir = dir};
        RunRecord direct = runner.execute(spec);
        EXPECT_TRUE(direct.verified) << a.app;
        EXPECT_EQ(direct.simCycles, a.cycles) << a.app;
        for (ExecutionMode mode :
             {ExecutionMode::Record, ExecutionMode::Replay}) {
            spec.execMode = mode;
            RunRecord r = runner.execute(spec);
            EXPECT_TRUE(r.verified) << a.app;
            EXPECT_EQ(r.simCycles, a.cycles) << a.app;
            EXPECT_EQ(r.imageHash, direct.imageHash) << a.app;
        }
    }
    std::filesystem::remove_all(dir);
}

TEST(Runner, SequentialReferenceAndSpeedupFields)
{
    setQuiet(true);
    Runner runner;
    ExperimentSpec spec = smokeSpec("worker", ProtocolConfig::hw(5));
    const RunRecord &seq = runner.runSequential(spec);
    EXPECT_TRUE(seq.sequential);
    EXPECT_TRUE(seq.verified);
    EXPECT_EQ(seq.nodes, 1);
    EXPECT_GT(seq.simCycles, 0u);
}

/**
 * The six Figure 4 speedup denominators, built as fig4_speedups
 * builds them (64-node spec, victim 6, SMGRID fine=65) and pinned:
 * a drift in any of them would move a whole row of speedups.
 */
TEST(Runner, Figure4SequentialReferencesArePinned)
{
    setQuiet(true);
    struct Reference
    {
        const char *label;
        const char *app;
        AppParams params;
        Tick cycles;
    };
    const Reference refs[] = {
        {"TSP", "tsp", {}, 9704597},
        {"AQ", "aq", {}, 18148080},
        {"SMGRID", "smgrid", {{"fine", "65"}}, 9626108},
        {"EVOLVE", "evolve", {}, 4722109},
        {"MP3D", "mp3d", {}, 1728980},
        {"WATER", "water", {}, 24225468},
    };
    std::vector<ExperimentSpec> specs;
    for (const Reference &r : refs) {
        specs.push_back(ExperimentSpec{
            .id = std::string("fig4/") + r.label,
            .app = r.app,
            .params = r.params,
            .nodes = 64,
            .victimEntries = 6,
            .sequential = true});
    }
    Runner runner;
    std::vector<RunRecord *> recs = runner.runAll(specs, 2);
    ASSERT_EQ(recs.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_TRUE(recs[i]->verified) << refs[i].label;
        EXPECT_EQ(recs[i]->simCycles, refs[i].cycles) << refs[i].label;
    }
}

TEST(RunRecord, SerializesAsValidSwexRunV1)
{
    setQuiet(true);
    Runner runner;
    ExperimentSpec spec = smokeSpec("worker", ProtocolConfig::hw(5));
    spec.trackSharing = true;
    RunRecord &r = runner.run(spec);
    r.seqCycles = static_cast<double>(
        runner.runSequential(spec).simCycles);
    r.speedup = r.seqCycles / static_cast<double>(r.simCycles);

    std::ostringstream os;
    runner.log().writeJson(os);
    wire::JsonValue doc = parseJson(os.str());

    EXPECT_EQ(at(doc, "schema").raw, "swex-run-v1");
    ASSERT_EQ(at(doc, "records").items().size(), 2u);

    const wire::JsonValue &rec = at(doc, "records").items()[0];
    EXPECT_EQ(at(rec, "id").raw, "test/worker");
    EXPECT_EQ(at(rec, "app").raw, "worker");
    EXPECT_EQ(numberOf(at(rec, "nodes")), 4.0);
    EXPECT_EQ(at(rec, "sequential").boolean, false);
    EXPECT_TRUE(at(rec, "verified").boolean);
    EXPECT_GT(numberOf(at(rec, "sim_cycles")), 0.0);
    EXPECT_TRUE(has(at(rec, "metrics"), "messages"));
    EXPECT_TRUE(has(at(rec, "host"), "events"));
    EXPECT_GT(numberOf(at(rec, "speedup")), 0.0);
    EXPECT_FALSE(at(rec, "worker_sets").items().empty());

    // The embedded stats tree parses and has per-node groups.
    EXPECT_TRUE(has(at(rec, "stats"), "node0"));

    const wire::JsonValue &seq = at(doc, "records").items()[1];
    EXPECT_TRUE(at(seq, "sequential").boolean);
    EXPECT_FALSE(has(seq, "speedup"));
}

TEST(RunLog, WritesAndMergesNothingWhenEnvUnset)
{
    // writeEnv with SWEX_RUN_JSON unset must report success and
    // write nothing.
    ASSERT_EQ(::unsetenv(RunLog::envVar), 0);
    RunLog log;
    RunRecord r;
    r.id = "x";
    log.add(std::move(r));
    EXPECT_TRUE(log.writeEnv());
}

TEST(RunLog, WriteFailuresAreReportedNotSilent)
{
    RunLog log;
    RunRecord r;
    r.id = "x";
    log.add(std::move(r));

    // An unwritable path must come back as false...
    EXPECT_FALSE(log.writeFile("/nonexistent-dir/records.json"));

    // ...including through the $SWEX_RUN_JSON route, so drivers can
    // exit non-zero instead of silently dropping the records.
    ASSERT_EQ(::setenv(RunLog::envVar,
                       "/nonexistent-dir/records.json", 1), 0);
    EXPECT_FALSE(log.writeEnv());
    ASSERT_EQ(::unsetenv(RunLog::envVar), 0);
}

namespace
{

/** A small mixed grid: two apps, three protocols, jittered and
 *  quiet meshes — enough variety to catch any cross-run leakage. */
std::vector<ExperimentSpec>
determinismGrid()
{
    std::vector<ExperimentSpec> specs;
    int n = 0;
    for (const char *app : {"worker", "tsp"}) {
        for (ProtocolConfig proto :
             {ProtocolConfig::hw(5), ProtocolConfig::h1Lack(),
              ProtocolConfig::fullMap()}) {
            ExperimentSpec spec = smokeSpec(app, proto);
            spec.id = "grid/" + std::to_string(n) + "/" + app;
            spec.jitterMax = (n % 2 != 0) ? 23 : 0;
            spec.jitterSeed = static_cast<std::uint64_t>(n + 1);
            specs.push_back(std::move(spec));
            ++n;
        }
    }
    return specs;
}

} // anonymous namespace

TEST(RunnerParallel, JobsDoNotChangeResults)
{
    // The determinism contract behind every --jobs flag: the same
    // spec list yields the same cycle counts, the same final memory
    // images, and a bit-identical canonical swex-run-v1 document at
    // any concurrency.
    setQuiet(true);
    std::vector<ExperimentSpec> specs = determinismGrid();

    Runner serial;
    std::vector<RunRecord *> a = serial.runAll(specs, 1);
    Runner threaded;
    std::vector<RunRecord *> b = threaded.runAll(specs, 8);

    ASSERT_EQ(a.size(), specs.size());
    ASSERT_EQ(b.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(a[i]->simCycles, b[i]->simCycles) << specs[i].id;
        EXPECT_EQ(a[i]->imageHash, b[i]->imageHash) << specs[i].id;
        EXPECT_TRUE(b[i]->verified) << specs[i].id;
    }

    // Canonical serialization zeroes the wall-clock fields (the only
    // host-dependent values), so the documents must be bytewise
    // identical.
    std::ostringstream doc_a, doc_b;
    serial.log().writeJson(doc_a, /*canonical=*/true);
    threaded.log().writeJson(doc_b, /*canonical=*/true);
    EXPECT_EQ(doc_a.str(), doc_b.str());
}

TEST(RunnerParallel, LogMergesInSpecOrder)
{
    setQuiet(true);
    std::vector<ExperimentSpec> specs = determinismGrid();
    Runner runner;
    std::vector<RunRecord *> recs = runner.runAll(specs, 4);

    // The returned pointers parallel the spec list...
    ASSERT_EQ(recs.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(recs[i]->id, specs[i].id);

    // ...and the log itself holds the records in spec order, which
    // is what makes the emitted document independent of scheduling.
    std::ostringstream os;
    runner.log().writeJson(os, /*canonical=*/true);
    wire::JsonValue doc = parseJson(os.str());
    ASSERT_EQ(at(doc, "records").items().size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(at(at(doc, "records").items()[i], "id").raw,
                  specs[i].id);
}

// ------------------------------------------------------------------
// Record bytes.
// ------------------------------------------------------------------

namespace
{

/** FNV-1a from the standard 64-bit offset basis (not bin::fnvOffset). */
std::uint64_t
fnv1a(const std::string &bytes)
{
    return bin::fnv1a(14695981039346656037ull, bytes.data(),
                      bytes.size());
}

/** Every directory protocol under audit, jitter and faults; every
 *  snooping protocol; and one 64-node Figure 4 cell with its
 *  sequential reference. */
std::vector<ExperimentSpec>
recordBytesGrid()
{
    std::vector<ExperimentSpec> specs;
    for (const SpectrumPoint &pt : protocolSpectrum()) {
        ExperimentSpec s;
        s.id = "bytes/worker/" + pt.label;
        s.app = "worker";
        s.params = {{"wss", "4"}, {"iterations", "2"}};
        s.protocol = pt.protocol;
        s.nodes = 16;
        s.victimEntries = 6;
        s.seed = 1;
        s.audit = true;
        s.jitterMax = 37;
        s.faultDropPerMille = 20;
        s.faultDupPerMille = 10;
        s.faultBlackoutPerMille = 5;
        specs.push_back(std::move(s));
    }
    for (SnoopProtocol sp : {SnoopProtocol::Mesi, SnoopProtocol::Moesi,
                             SnoopProtocol::Mesif,
                             SnoopProtocol::Dragon}) {
        ExperimentSpec s;
        s.id = std::string("bytes/falseshare/") + snoopProtocolName(sp);
        s.app = "falseshare";
        s.params = {{"iterations", "8"}};
        s.nodes = 16;
        s.machineModel = MachineModel::Snoop;
        s.snoopProtocol = sp;
        s.victimEntries = 6;
        s.audit = true;
        specs.push_back(std::move(s));
    }
    ExperimentSpec mp3d;
    mp3d.id = "fig4/MP3D/h5";
    mp3d.app = "mp3d";
    mp3d.protocol = ProtocolConfig::hw(5);
    mp3d.nodes = 64;
    mp3d.victimEntries = 6;
    specs.push_back(mp3d);
    mp3d.id = "fig4/MP3D/seq";
    mp3d.sequential = true;
    specs.push_back(mp3d);
    return specs;
}

} // anonymous namespace

/**
 * The bytes every record consumer depends on, pinned: the canonical
 * swex-run-v1 document, whose embedded stats tree is also what
 * `swex_cli --stats` prints and the result cache stores. Any drift in
 * the stats renderer, the image hash, or simulated timing moves the
 * digest.
 */
TEST(RunRecord, CanonicalBytesArePinned)
{
    setQuiet(true);
    std::vector<ExperimentSpec> specs = recordBytesGrid();
    Runner runner;
    std::vector<RunRecord *> recs = runner.runAll(specs, 2);
    ASSERT_EQ(recs.size(), specs.size());

    std::ostringstream doc;
    runner.log().writeJson(doc, /*canonical=*/true);
    for (const RunRecord *r : recs) {
        EXPECT_TRUE(r->verified) << r->id;
        EXPECT_EQ(r->auditViolations, 0u) << r->id;
    }
    EXPECT_EQ(fnv1a(doc.str()), 0xb5fe5955c03b80f9ull);
}

// ------------------------------------------------------------------
// Longest-first scheduling.
// ------------------------------------------------------------------

TEST(Pool, LongestFirstOrderSortsByDescendingCost)
{
    std::vector<std::size_t> order =
        longestFirstOrder({1.0, 5.0, 3.0, 4.0});
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], 1u);
    EXPECT_EQ(order[1], 3u);
    EXPECT_EQ(order[2], 2u);
    EXPECT_EQ(order[3], 0u);
}

TEST(Pool, LongestFirstOrderIsStableForTies)
{
    // Equal costs keep spec order: determinism of the claiming
    // sequence must not depend on sort implementation details.
    std::vector<std::size_t> order =
        longestFirstOrder({2.0, 7.0, 2.0, 2.0});
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], 1u);
    EXPECT_EQ(order[1], 0u);
    EXPECT_EQ(order[2], 2u);
    EXPECT_EQ(order[3], 3u);
}

TEST(Pool, CostAwareParallelForVisitsEveryIndexOnce)
{
    std::vector<int> hits(9, 0);
    std::vector<double> costs = {3, 1, 4, 1, 5, 9, 2, 6, 5};
    parallelFor(hits.size(), 4, costs,
                [&](std::size_t i) { hits[i] += 1; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1) << i;
}

// ------------------------------------------------------------------
// The runner's failure path: non-terminating runs become structured
// records instead of fatal().
// ------------------------------------------------------------------

namespace
{

/** A run guaranteed to exceed its deadline: a real workload cut off
 *  after a sliver of simulated time. */
ExperimentSpec
deadlineSpec()
{
    ExperimentSpec spec = smokeSpec("tsp", ProtocolConfig::hw(5));
    spec.id = "fail/deadline";
    spec.params = {};   // default TSP instance: ~1M cycles at 16 nodes
    spec.nodes = 16;
    spec.deadline = 10000;
    return spec;
}

/** The livelock recipe: SkipLastAckTrap under a LACK protocol with a
 *  multi-sharer write working set. The mutated hardware swallows the
 *  trap that would finish every write transaction, so the machine
 *  stalls with threads still running; the deadline (or deadlock
 *  detection) must convert that into a structured failure record. */
ExperimentSpec
livelockSpec()
{
    ExperimentSpec spec = smokeSpec("worker", ProtocolConfig::h1Lack());
    spec.id = "fail/livelock";
    spec.params = {{"wss", "4"}, {"iterations", "3"}};
    spec.mutation = ProtocolMutation::SkipLastAckTrap;
    spec.deadline = 5'000'000;
    return spec;
}

} // anonymous namespace

TEST(RunnerFailure, DeadlineYieldsStructuredRecordNotFatal)
{
    setQuiet(true);
    Runner runner(/*fail_fast=*/false);
    const RunRecord &r = runner.run(deadlineSpec());

    EXPECT_TRUE(r.failed());
    EXPECT_EQ(r.status, "deadline");
    EXPECT_FALSE(r.verified);
    EXPECT_LE(r.lastProgress, 10000u + 1u);
    EXPECT_EQ(r.deadline, 10000u);
    // The post-mortem stall summary names what was in flight.
    EXPECT_FALSE(r.stallSummary.empty());

    // The record serializes with the failure fields.
    std::ostringstream os;
    runner.log().writeJson(os, /*canonical=*/true);
    wire::JsonValue doc = parseJson(os.str());
    const wire::JsonValue &rec = at(doc, "records").items()[0];
    EXPECT_EQ(at(rec, "status").raw, "deadline");
    EXPECT_TRUE(has(rec, "last_progress"));
    EXPECT_TRUE(has(rec, "stall"));
    EXPECT_EQ(numberOf(at(rec, "deadline")), 10000.0);
}

TEST(RunnerFailure, LivelockedCellIsQuarantinedAtAnyJobs)
{
    setQuiet(true);

    // One poisoned cell between two healthy siblings: the sweep must
    // quarantine the failure and leave the siblings' results exactly
    // what they would have been alone -- at any host parallelism.
    std::vector<ExperimentSpec> specs;
    ExperimentSpec good = smokeSpec("worker", ProtocolConfig::hw(5));
    good.id = "fail/sib0";
    specs.push_back(good);
    specs.push_back(livelockSpec());
    good.id = "fail/sib2";
    specs.push_back(good);

    Runner alone(/*fail_fast=*/false);
    Tick sib_cycles = alone.run(specs[0]).simCycles;

    Runner serial(/*fail_fast=*/false);
    std::vector<RunRecord *> a = serial.runAll(specs, 1);
    Runner threaded(/*fail_fast=*/false);
    std::vector<RunRecord *> b = threaded.runAll(specs, 8);

    for (const std::vector<RunRecord *> &recs : {a, b}) {
        ASSERT_EQ(recs.size(), 3u);
        EXPECT_TRUE(recs[1]->failed());
        EXPECT_NE(recs[1]->status, "ok");
        EXPECT_FALSE(recs[1]->stallSummary.empty());
        // Siblings are untouched by the neighbor's failure.
        EXPECT_FALSE(recs[0]->failed());
        EXPECT_TRUE(recs[0]->verified);
        EXPECT_EQ(recs[0]->simCycles, sib_cycles);
        EXPECT_FALSE(recs[2]->failed());
        EXPECT_TRUE(recs[2]->verified);
        EXPECT_EQ(recs[2]->simCycles, sib_cycles);
    }

    // Including the failure record, the canonical document is
    // bit-identical across --jobs.
    std::ostringstream doc_a, doc_b;
    serial.log().writeJson(doc_a, /*canonical=*/true);
    threaded.log().writeJson(doc_b, /*canonical=*/true);
    EXPECT_EQ(doc_a.str(), doc_b.str());
}
