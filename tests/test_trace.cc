/**
 * @file
 * Tests for the record/replay subsystem: the swex-trace-v1 container
 * round-trips, rejects truncated and corrupt files with structured
 * errors, invalidates stale keys; and replay reproduces bit-identical
 * cycle counts and memory images — for config-bound traces under the
 * recording config, and for portable traces under every protocol
 * cell.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exp/runner.hh"
#include "trace/encoding.hh"
#include "trace/replay.hh"
#include "trace/trace_format.hh"

using namespace swex;

namespace
{

/** Fresh scratch directory under gtest's temp root. */
std::string
scratchDir(const std::string &tag)
{
    std::string tmpl = ::testing::TempDir() + "swextrace-" + tag +
                       "-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char *d = mkdtemp(buf.data());
    EXPECT_NE(d, nullptr);
    return d != nullptr ? d : ".";
}

std::vector<std::uint8_t>
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::vector<std::uint8_t> raw;
    std::uint8_t buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        raw.insert(raw.end(), buf, buf + n);
    std::fclose(f);
    return raw;
}

void
spit(const std::string &path, const std::vector<std::uint8_t> &raw)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    // fwrite's buffer must be non-null even for zero bytes, and an
    // empty vector's data() may be null.
    if (!raw.empty()) {
        ASSERT_EQ(std::fwrite(raw.data(), 1, raw.size(), f), raw.size());
    }
    std::fclose(f);
}

/** A small synthetic trace with two op streams. */
trace::Trace
sampleTrace()
{
    TraceRecorder rec(2);
    rec.setFootprint(0, {0x1000, 0x1040, 0x1080});
    rec.work(0, 250);
    rec.memOp(0, trace::Op::Load, 0x40000, 0);
    rec.memOp(0, trace::Op::Store, 0x40008, 7);
    rec.memOp(0, trace::Op::FetchAdd, 0x40010, 1);
    rec.memOp(0, trace::Op::Swap, 0x40018, 99);
    rec.hwBarrier(0);
    rec.work(1, 1);
    rec.hwBarrier(1);

    trace::Trace t;
    t.meta.portable = true;
    t.meta.appNodes = 2;
    t.meta.numThreads = 2;
    t.meta.configFingerprint = 0xfeedULL;
    t.meta.recordedCycles = 4242;
    t.meta.recordedImageHash = 0xabcdULL;
    t.meta.seed = 12345;
    t.meta.app = "worker";
    t.meta.params = "iterations=2;wss=2";
    t.meta.protocol = "HW5";
    t.streams = {rec.stream(0), rec.stream(1)};
    return t;
}

ExperimentSpec
workerSpec(const std::string &id, ProtocolConfig proto,
           ExecutionMode mode, const std::string &dir)
{
    ExperimentSpec s{.id = id,
                     .app = "worker",
                     .params = {{"wss", "3"}, {"iterations", "3"}},
                     .protocol = proto,
                     .nodes = 8,
                     .victimEntries = 6};
    s.execMode = mode;
    s.traceDir = dir;
    return s;
}

} // anonymous namespace

TEST(TraceEncoding, VarintRoundTrips)
{
    std::vector<std::uint8_t> buf;
    const std::uint64_t values[] = {0, 1, 127, 128, 300, 1ull << 31,
                                    ~0ull};
    for (std::uint64_t v : values)
        trace::putVarint(buf, v);
    const std::uint8_t *cur = buf.data();
    const std::uint8_t *end = buf.data() + buf.size();
    for (std::uint64_t v : values) {
        std::uint64_t got = 0;
        ASSERT_TRUE(trace::getVarint(cur, end, got));
        EXPECT_EQ(got, v);
    }
    EXPECT_EQ(cur, end);

    // Truncation mid-varint decodes to failure, not garbage.
    std::vector<std::uint8_t> cut;
    trace::putVarint(cut, 1ull << 40);
    cut.pop_back();
    cur = cut.data();
    end = cut.data() + cut.size();
    std::uint64_t got = 0;
    EXPECT_FALSE(trace::getVarint(cur, end, got));
}

TEST(TraceFormat, SaveLoadRoundTrips)
{
    std::string dir = scratchDir("roundtrip");
    std::string path = dir + "/t.swextrace";
    trace::Trace t = sampleTrace();
    std::string err;
    ASSERT_TRUE(t.save(path, err)) << err;

    trace::Trace back;
    ASSERT_TRUE(trace::Trace::load(path, back, err)) << err;
    EXPECT_EQ(back.meta.version, trace::traceVersion);
    EXPECT_EQ(back.meta.schema, trace::traceSchema);
    EXPECT_TRUE(back.meta.portable);
    EXPECT_FALSE(back.meta.sequential);
    EXPECT_EQ(back.meta.appNodes, 2u);
    EXPECT_EQ(back.meta.numThreads, 2u);
    EXPECT_EQ(back.meta.configFingerprint, 0xfeedULL);
    EXPECT_EQ(back.meta.recordedCycles, 4242u);
    EXPECT_EQ(back.meta.recordedImageHash, 0xabcdULL);
    EXPECT_EQ(back.meta.app, "worker");
    EXPECT_EQ(back.meta.params, "iterations=2;wss=2");
    EXPECT_EQ(back.meta.protocol, "HW5");
    ASSERT_EQ(back.streams.size(), 2u);
    EXPECT_EQ(back.streams[0].bytes, t.streams[0].bytes);
    EXPECT_EQ(back.streams[0].ops, t.streams[0].ops);
    EXPECT_EQ(back.streams[1].bytes, t.streams[1].bytes);
}

// Regression for the torn-write bug: Trace::save used a fixed
// "<path>.tmp" staging name, so two writers racing the same trace
// path could interleave their writes in one temp file and rename a
// torn hybrid into place. With unique per-writer temp names the file
// at the path is always some writer's complete save — every racing
// round must leave a trace that loads with passing checksums.
TEST(TraceFormat, ConcurrentSameKeySavesLeaveALoadableFile)
{
    std::string dir = scratchDir("saverace");
    std::string path = dir + "/t.swextrace";
    constexpr int writers = 8;
    constexpr int rounds = 20;

    std::vector<std::thread> threads;
    threads.reserve(writers);
    for (int t = 0; t < writers; ++t) {
        threads.emplace_back([&, t] {
            trace::Trace mine = sampleTrace();
            // Distinct per-writer sizes, so a torn interleaving of
            // two writers cannot masquerade as either one.
            mine.meta.seed = 1000 + t;
            mine.meta.params += ";pad=" + std::string(64 * (t + 1),
                                                      'p');
            for (int i = 0; i < rounds; ++i) {
                std::string err;
                ASSERT_TRUE(mine.save(path, err)) << err;
                trace::Trace back;
                ASSERT_TRUE(trace::Trace::load(path, back, err))
                    << err;
            }
        });
    }
    for (auto &th : threads)
        th.join();

    trace::Trace back;
    std::string err;
    ASSERT_TRUE(trace::Trace::load(path, back, err)) << err;
    const auto t = back.meta.seed - 1000;
    ASSERT_LT(t, static_cast<std::uint64_t>(writers));
    EXPECT_NE(back.meta.params.find(std::string(64 * (t + 1), 'p')),
              std::string::npos);
}

TEST(TraceFormat, MissingFileIsAStructuredError)
{
    trace::Trace out;
    std::string err;
    EXPECT_FALSE(trace::Trace::load("/nonexistent/t.swextrace", out,
                                    err));
    EXPECT_NE(err.find("no trace file"), std::string::npos) << err;
}

TEST(TraceFormat, BadMagicIsRejected)
{
    std::string dir = scratchDir("magic");
    std::string path = dir + "/t.swextrace";
    trace::Trace t = sampleTrace();
    std::string err;
    ASSERT_TRUE(t.save(path, err)) << err;

    auto raw = slurp(path);
    raw[0] ^= 0xff;
    spit(path, raw);
    trace::Trace out;
    EXPECT_FALSE(trace::Trace::load(path, out, err));
    EXPECT_NE(err.find("bad magic"), std::string::npos) << err;
}

TEST(TraceFormat, EveryTruncationIsRejectedWithoutCrashing)
{
    std::string dir = scratchDir("trunc");
    std::string full = dir + "/full.swextrace";
    trace::Trace t = sampleTrace();
    std::string err;
    ASSERT_TRUE(t.save(full, err)) << err;
    auto raw = slurp(full);

    std::string path = dir + "/cut.swextrace";
    for (std::size_t len = 0; len < raw.size(); len += 7) {
        spit(path, {raw.begin(), raw.begin() +
                                     static_cast<std::ptrdiff_t>(len)});
        trace::Trace out;
        err.clear();
        EXPECT_FALSE(trace::Trace::load(path, out, err)) << len;
        EXPECT_FALSE(err.empty()) << len;
    }
}

TEST(TraceFormat, CorruptHeaderAndPayloadFailChecksums)
{
    std::string dir = scratchDir("corrupt");
    std::string path = dir + "/t.swextrace";
    trace::Trace t = sampleTrace();
    std::string err;
    ASSERT_TRUE(t.save(path, err)) << err;
    auto raw = slurp(path);

    // Flip a byte inside the app-name characters (the string length
    // at 60 would misparse as truncation; content hits the checksum).
    auto header_bad = raw;
    header_bad[66] ^= 0x01;
    spit(path, header_bad);
    trace::Trace out;
    EXPECT_FALSE(trace::Trace::load(path, out, err));
    EXPECT_NE(err.find("header checksum"), std::string::npos) << err;

    // Flip a byte in the payload (last stream byte before the tail).
    auto payload_bad = raw;
    payload_bad[raw.size() - 9] ^= 0x01;
    spit(path, payload_bad);
    EXPECT_FALSE(trace::Trace::load(path, out, err));
    EXPECT_NE(err.find("payload checksum"), std::string::npos) << err;
}

TEST(TraceFormat, StaleSchemaAsksForReRecord)
{
    std::string dir = scratchDir("schema");
    std::string path = dir + "/t.swextrace";
    trace::Trace t = sampleTrace();
    std::string err;
    ASSERT_TRUE(t.save(path, err)) << err;

    // Bytes 12..15 hold the little-endian schema; version/schema are
    // checked before the header checksum so old traces always get the
    // re-record message, not a corruption report.
    auto raw = slurp(path);
    raw[12] = 0xee;
    spit(path, raw);
    trace::Trace out;
    EXPECT_FALSE(trace::Trace::load(path, out, err));
    EXPECT_NE(err.find("re-record"), std::string::npos) << err;
}

TEST(TraceFormat, KeyMismatchNamesTheStaleComponent)
{
    trace::Trace t = sampleTrace();
    EXPECT_EQ(t.keyMismatch("worker", "iterations=2;wss=2", 2, false),
              "");
    EXPECT_NE(t.keyMismatch("tsp", "iterations=2;wss=2", 2, false)
                  .find("app"),
              std::string::npos);
    EXPECT_NE(t.keyMismatch("worker", "iterations=9;wss=2", 2, false)
                  .find("params"),
              std::string::npos);
    EXPECT_NE(t.keyMismatch("worker", "iterations=2;wss=2", 4, false)
                  .find("nodes"),
              std::string::npos);
    EXPECT_NE(t.keyMismatch("worker", "iterations=2;wss=2", 2, true)
                  .find("sequential"),
              std::string::npos);
}

TEST(TraceFormat, FileNamesSeparateConfigCells)
{
    // Config-bound traces from different machine configs must not
    // collide in the cache directory; portable traces share one file.
    std::string a = trace::traceFileName("aq", "p=1", 16, false,
                                         false, 0x1111);
    std::string b = trace::traceFileName("aq", "p=1", 16, false,
                                         false, 0x2222);
    std::string p = trace::traceFileName("worker", "p=1", 16, false,
                                         true, 0x1111);
    std::string q = trace::traceFileName("worker", "p=1", 16, false,
                                         true, 0x2222);
    EXPECT_NE(a, b);
    EXPECT_EQ(p, q);
}

TEST(TraceReplay, PortableRecordReplaysBitIdenticalAcrossProtocols)
{
    std::string dir = scratchDir("portable");
    Runner runner;

    // Record once under HW5.
    RunRecord rec = runner.execute(workerSpec(
        "rec", ProtocolConfig::hw(5), ExecutionMode::Record, dir));
    ASSERT_EQ(rec.status, "ok");
    ASSERT_TRUE(rec.verified);

    // Replay under the recording cell and under different protocol
    // cells; each must match its own direct run bit for bit.
    for (ProtocolConfig proto :
         {ProtocolConfig::hw(5), ProtocolConfig::h0(),
          ProtocolConfig::h1Ack(), ProtocolConfig::fullMap()}) {
        RunRecord direct = runner.execute(workerSpec(
            "dir", proto, ExecutionMode::Direct, dir));
        RunRecord replay = runner.execute(workerSpec(
            "rep", proto, ExecutionMode::Replay, dir));
        ASSERT_EQ(replay.status, "ok") << proto.name();
        EXPECT_TRUE(replay.verified) << proto.name();
        EXPECT_EQ(replay.simCycles, direct.simCycles) << proto.name();
        EXPECT_EQ(replay.imageHash, direct.imageHash) << proto.name();
        EXPECT_EQ(replay.trapsRaised, direct.trapsRaised)
            << proto.name();
        EXPECT_EQ(replay.messages, direct.messages) << proto.name();
    }
}

TEST(TraceReplay, EvolveIsTracePortableAcrossProtocols)
{
    // EVOLVE qualified for portability by replacing its best-fitness
    // lock with per-thread slots and a thread-0 reduction: its walks
    // branch only on the fitness table, written once in setup. A
    // trace recorded under HW5 must replay bit-identically under
    // other protocol cells.
    ASSERT_TRUE(AppRegistry::instance().entry("evolve").tracePortable);
    std::string dir = scratchDir("evolve");
    Runner runner;
    ExperimentSpec spec{
        .id = "evolve",
        .app = "evolve",
        .params = {{"dims", "5"}, {"walks", "1"}},
        .protocol = ProtocolConfig::hw(5),
        .nodes = 8,
        .victimEntries = 6};
    spec.execMode = ExecutionMode::Record;
    spec.traceDir = dir;
    RunRecord rec = runner.execute(spec);
    ASSERT_EQ(rec.status, "ok");
    ASSERT_TRUE(rec.verified);

    for (ProtocolConfig proto :
         {ProtocolConfig::h0(), ProtocolConfig::h1Ack(),
          ProtocolConfig::fullMap()}) {
        spec.protocol = proto;
        spec.execMode = ExecutionMode::Direct;
        RunRecord direct = runner.execute(spec);
        spec.execMode = ExecutionMode::Replay;
        RunRecord replay = runner.execute(spec);
        ASSERT_EQ(replay.status, "ok") << proto.name();
        EXPECT_TRUE(replay.verified) << proto.name();
        EXPECT_EQ(replay.simCycles, direct.simCycles) << proto.name();
        EXPECT_EQ(replay.imageHash, direct.imageHash) << proto.name();
    }
}

TEST(TraceReplay, SmgridIsTracePortableAcrossProtocols)
{
    // SMGRID's unified kernel (static partition, hardware barriers,
    // residual slots reduced by thread 0) makes every reference a
    // pure function of (params, nodes, tid).
    ASSERT_TRUE(AppRegistry::instance().entry("smgrid").tracePortable);
    std::string dir = scratchDir("smgrid");
    Runner runner;
    ExperimentSpec spec{
        .id = "smgrid",
        .app = "smgrid",
        .params = {{"fine", "9"}, {"levels", "2"}},
        .protocol = ProtocolConfig::hw(5),
        .nodes = 4,
        .victimEntries = 6};
    spec.execMode = ExecutionMode::Record;
    spec.traceDir = dir;
    RunRecord rec = runner.execute(spec);
    ASSERT_EQ(rec.status, "ok");
    ASSERT_TRUE(rec.verified);

    for (ProtocolConfig proto :
         {ProtocolConfig::h0(), ProtocolConfig::h1Lack(),
          ProtocolConfig::fullMap()}) {
        spec.protocol = proto;
        spec.execMode = ExecutionMode::Direct;
        RunRecord direct = runner.execute(spec);
        spec.execMode = ExecutionMode::Replay;
        RunRecord replay = runner.execute(spec);
        ASSERT_EQ(replay.status, "ok") << proto.name();
        EXPECT_TRUE(replay.verified) << proto.name();
        EXPECT_EQ(replay.simCycles, direct.simCycles) << proto.name();
        EXPECT_EQ(replay.imageHash, direct.imageHash) << proto.name();
    }
}

TEST(TraceReplay, SequentialBaselineReplaysBitIdentical)
{
    std::string dir = scratchDir("seq");
    Runner runner;
    ExperimentSpec spec = workerSpec("seq", ProtocolConfig::hw(5),
                                     ExecutionMode::Record, dir);
    spec.sequential = true;
    RunRecord rec = runner.execute(spec);
    ASSERT_EQ(rec.status, "ok");

    spec.execMode = ExecutionMode::Replay;
    RunRecord replay = runner.execute(spec);
    EXPECT_EQ(replay.status, "ok");
    EXPECT_TRUE(replay.verified);
    EXPECT_EQ(replay.simCycles, rec.simCycles);
    EXPECT_EQ(replay.imageHash, rec.imageHash);
}

TEST(TraceReplay, ConfigBoundAppReplaysUnderTheRecordingConfig)
{
    // aq's work-queue op stream is timing-dependent (not portable),
    // but an exact-config replay is still bit-identical.
    std::string dir = scratchDir("aq");
    Runner runner;
    ExperimentSpec spec{
        .id = "aq",
        .app = "aq",
        .params = AppRegistry::instance().entry("aq").smokeParams,
        .protocol = ProtocolConfig::hw(5),
        .nodes = 4,
        .victimEntries = 6};
    spec.execMode = ExecutionMode::Record;
    spec.traceDir = dir;
    RunRecord rec = runner.execute(spec);
    ASSERT_EQ(rec.status, "ok");
    ASSERT_TRUE(rec.verified);

    spec.execMode = ExecutionMode::Replay;
    RunRecord replay = runner.execute(spec);
    EXPECT_EQ(replay.status, "ok");
    EXPECT_TRUE(replay.verified);
    EXPECT_EQ(replay.simCycles, rec.simCycles);
    EXPECT_EQ(replay.imageHash, rec.imageHash);
}

TEST(TraceReplay, NonPortableAppRefusesCrossConfigReplay)
{
    std::string dir = scratchDir("refuse");
    Runner runner;
    ExperimentSpec spec{
        .id = "aq",
        .app = "aq",
        .params = AppRegistry::instance().entry("aq").smokeParams,
        .protocol = ProtocolConfig::hw(5),
        .nodes = 4,
        .victimEntries = 6};
    spec.execMode = ExecutionMode::Record;
    spec.traceDir = dir;
    RunRecord rec = runner.execute(spec);
    ASSERT_EQ(rec.status, "ok");

    // A different protocol cell: the config-bound trace must not be
    // found, and the error must say why a portable one cannot exist.
    spec.protocol = ProtocolConfig::h0();
    trace::Trace out;
    std::string err = Runner::findReplayTrace(spec, out);
    ASSERT_FALSE(err.empty());
    EXPECT_NE(err.find("not trace-portable"), std::string::npos)
        << err;
}

TEST(TraceReplay, MissingTraceIsAStructuredError)
{
    std::string dir = scratchDir("missing");
    ExperimentSpec spec = workerSpec("x", ProtocolConfig::hw(5),
                                     ExecutionMode::Replay, dir);
    trace::Trace out;
    std::string err = Runner::findReplayTrace(spec, out);
    ASSERT_FALSE(err.empty());
    EXPECT_NE(err.find("no trace file"), std::string::npos) << err;

    // And with no trace directory at all, the error says how to fix
    // it instead of pointing at a path.
    spec.traceDir.clear();
    unsetenv("SWEX_TRACE_CACHE");
    err = Runner::findReplayTrace(spec, out);
    EXPECT_NE(err.find("no trace directory"), std::string::npos)
        << err;
}

TEST(TraceReplay, RunAllReplayMatchesDirectSweep)
{
    std::string dir = scratchDir("sweep");
    std::vector<ExperimentSpec> specs;
    for (int ptrs : {1, 2, 5}) {
        specs.push_back(workerSpec("cell/h" + std::to_string(ptrs),
                                   ProtocolConfig::hw(ptrs),
                                   ExecutionMode::Direct, ""));
    }
    ExperimentSpec seq = workerSpec("cell/seq", ProtocolConfig::hw(5),
                                    ExecutionMode::Direct, "");
    seq.sequential = true;
    specs.push_back(seq);

    Runner direct;
    auto want = direct.runAll(specs, 2);
    auto expectMatches = [&](const std::vector<RunRecord *> &got) {
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i]->simCycles, want[i]->simCycles)
                << specs[i].id;
            EXPECT_EQ(got[i]->imageHash, want[i]->imageHash)
                << specs[i].id;
            EXPECT_TRUE(got[i]->verified) << specs[i].id;
        }
    };

    // Pass one: the first cell of each trace key (h1 and the
    // sequential reference) records, the rest replay.
    Runner cold;
    auto got = cold.runAllReplay(specs, 2, dir);
    expectMatches(got);
    EXPECT_EQ(got[0]->execMode, "record");
    EXPECT_EQ(got[1]->execMode, "replay");
    EXPECT_EQ(got[2]->execMode, "replay");
    EXPECT_EQ(got[3]->execMode, "record");

    // Pass two over the same directory: every cell replays through
    // the simulated machine.
    Runner warm;
    got = warm.runAllReplay(specs, 2, dir);
    expectMatches(got);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i]->execMode, "replay") << specs[i].id;

    // Replays write nothing: the directory holds exactly the
    // exact-config and portable traces the two recording cells saved.
    std::set<std::string> expected;
    for (const ExperimentSpec *s : {&specs[0], &specs[3]}) {
        std::string params = trace::canonicalAppParams(s->params);
        expected.insert(trace::traceFileName(
            s->app, params, s->nodes, s->sequential, false,
            trace::configFingerprint(Runner::machineFor(*s))));
        expected.insert(trace::traceFileName(s->app, params, s->nodes,
                                             s->sequential, true, 0));
    }
    std::set<std::string> present;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        present.insert(e.path().filename().string());
    EXPECT_EQ(present, expected);
}
