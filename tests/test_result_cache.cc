/**
 * @file
 * Tests for the content-addressed result cache: the swex-rec
 * container survives concurrent same-key stores and its checksum
 * catches every single-byte change and every truncation, a hit serves
 * the byte-identical canonical document a direct run emits, a new
 * build fingerprint sends every cell cold, whatever backend it runs
 * on, corrupt entries fall back to recompute-and-replace, an
 * older version's entry is a stale miss replaced in place, the warm
 * path is --jobs invariant, and a hit writes nothing.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <fcntl.h>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include "base/binary_io.hh"
#include "base/logging.hh"
#include "exp/cache/record_io.hh"
#include "exp/cache/result_cache.hh"
#include "exp/runner.hh"

using namespace swex;

namespace
{

/** Fresh scratch directory under gtest's temp root. */
std::string
scratchDir(const std::string &tag)
{
    std::string tmpl = ::testing::TempDir() + "swexcache-" + tag +
                       "-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char *d = mkdtemp(buf.data());
    EXPECT_NE(d, nullptr);
    return d != nullptr ? d : ".";
}

/** A small directory-machine WORKER cell. */
ExperimentSpec
workerSpec(const std::string &id)
{
    return ExperimentSpec{.id = id,
                          .app = "worker",
                          .params = {{"wss", "3"}, {"iterations", "2"}},
                          .protocol = ProtocolConfig::hw(5),
                          .nodes = 8,
                          .victimEntries = 6};
}

/** A snooping-bus cell over a sharing microbenchmark. */
ExperimentSpec
snoopSpec(const std::string &id)
{
    ExperimentSpec s{.id = id,
                     .app = "falseshare",
                     .params = AppRegistry::instance()
                                   .entry("falseshare").smokeParams,
                     .nodes = 4,
                     .victimEntries = 6};
    s.machineModel = MachineModel::Snoop;
    s.snoopProtocol = SnoopProtocol::Mesi;
    return s;
}

std::string
canonicalJson(const RunRecord &r)
{
    std::ostringstream os;
    r.writeJson(os, /*canonical=*/true);
    return os.str();
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
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
    ASSERT_EQ(std::fwrite(raw.data(), 1, raw.size(), f), raw.size());
    std::fclose(f);
}

/** The names of the cache-entry files in @p dir. */
std::vector<std::string>
entryFiles(const std::string &dir)
{
    std::vector<std::string> names;
    DIR *d = ::opendir(dir.c_str());
    EXPECT_NE(d, nullptr);
    while (d != nullptr) {
        const dirent *e = ::readdir(d);
        if (e == nullptr)
            break;
        const std::string name = e->d_name;
        if (name.size() > 8 &&
            name.compare(name.size() - 8, 8, ".swexrec") == 0)
            names.push_back(name);
    }
    if (d != nullptr)
        ::closedir(d);
    return names;
}

/** Pin @p path's mtime to @p sec, so a test can tell whether
 *  anything wrote the entry since. */
void
setMtime(const std::string &path, std::uint64_t sec)
{
    timespec ts[2];
    ts[0].tv_sec = static_cast<time_t>(sec);
    ts[0].tv_nsec = 0;
    ts[1] = ts[0];
    ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), ts, 0), 0);
}

} // anonymous namespace

// The headline-bug regression at the cache layer: many writers
// racing the same entry path. Unique-temp + rename means the file at
// the path is always one writer's complete output — never a torn
// interleaving — so it must load with a passing checksum after every
// racing store.
TEST(RecordIo, ConcurrentSameKeyStoresLeaveACompleteEntry)
{
    setQuiet(true);
    const std::string path = scratchDir("race") + "/entry.swexrec";
    constexpr std::uint64_t specKey = 0x1234;
    constexpr std::uint64_t codeFp = 0x5678;
    constexpr int writers = 8;
    constexpr int rounds = 20;

    std::vector<std::thread> threads;
    threads.reserve(writers);
    for (int t = 0; t < writers; ++t) {
        threads.emplace_back([&, t] {
            RunRecord r;
            r.id = "race/" + std::to_string(t);
            r.app = "worker";
            r.protocol = "HW5";
            r.nodes = 8;
            r.verified = true;
            r.simCycles = 1000 + t;
            r.imageHash = 0xabcd0000 + t;
            // Vary the payload size per writer so a torn mix of two
            // writers cannot accidentally parse.
            r.stallSummary = std::string(16 * (t + 1), 'x');
            for (int i = 0; i < rounds; ++i) {
                std::string err;
                ASSERT_TRUE(cache::saveRecord(path, r, specKey,
                                              codeFp, err)) << err;
            }
        });
    }
    for (auto &th : threads)
        th.join();

    RunRecord out;
    std::string err;
    ASSERT_EQ(cache::loadRecord(path, out, specKey, codeFp, err),
              cache::LoadStatus::Ok) << err;
    // The surviving entry is exactly one writer's record.
    ASSERT_GE(out.simCycles, 1000u);
    ASSERT_LT(out.simCycles, 1000u + writers);
    const auto t = out.simCycles - 1000;
    EXPECT_EQ(out.id, "race/" + std::to_string(t));
    EXPECT_EQ(out.imageHash, 0xabcd0000 + t);
    EXPECT_EQ(out.stallSummary.size(), 16 * (t + 1));
}

// The checksum consumes words, not bytes, but must still catch what
// the byte-wise FNV-1a it replaced caught: every single-byte change
// anywhere in an entry, and every truncation.
TEST(RecordIo, EveryByteFlipAndEveryTruncationFailsToLoad)
{
    setQuiet(true);
    ExperimentSpec spec = workerSpec("cache/flip");
    spec.nodes = 4;
    const RunRecord rec = Runner().execute(spec);
    ASSERT_TRUE(rec.verified);
    constexpr std::uint64_t specKey = 0x1234;
    constexpr std::uint64_t codeFp = 0x5678;
    std::vector<std::uint8_t> raw =
        cache::encodeRecord(rec, specKey, codeFp);
    ASSERT_GT(raw.size(), 1000u);

    RunRecord out;
    std::string err;
    ASSERT_EQ(cache::decodeRecord(raw, "entry", out, specKey, codeFp,
                                  err),
              cache::LoadStatus::Ok) << err;
    EXPECT_EQ(canonicalJson(out), canonicalJson(rec));

    for (std::size_t i = 0; i < raw.size(); ++i) {
        raw[i] ^= 0xff;
        ASSERT_NE(cache::decodeRecord(raw, "entry", out, specKey, codeFp,
                                      err),
                  cache::LoadStatus::Ok) << "byte " << i << " flipped";
        ASSERT_FALSE(err.empty());
        raw[i] ^= 0xff;
    }
    for (std::size_t len = 0; len < raw.size(); ++len) {
        const std::vector<std::uint8_t> cut(raw.begin(),
                                            raw.begin() + len);
        ASSERT_NE(cache::decodeRecord(cut, "entry", out, specKey, codeFp,
                                      err),
                  cache::LoadStatus::Ok) << "cut to " << len << " bytes";
    }
}

// Entries older builds wrote are stale misses, and the recompute's
// store replaces them at the same path: version 1 (sealed with
// byte-wise FNV-1a) and version 2 (sealed with bin::checksum, with a
// text rendering of the stats tree after the JSON one), which is what
// caches filled before version 3 hold.
TEST(ResultCache, VersionOneEntryIsStaleAndReplacedInPlace)
{
    setQuiet(true);
    const std::string dir = scratchDir("v1");
    cache::ResultCache rcache(dir);
    const ExperimentSpec spec = workerSpec("cache/v1");

    Runner runner;
    runner.attachCache(&rcache);
    const RunRecord direct = runner.execute(spec);
    ASSERT_TRUE(direct.verified);

    const std::string path = rcache.entryPath(spec);
    for (const std::uint8_t version : {1, 2}) {
        SCOPED_TRACE("version " + std::to_string(version));
        const auto before = rcache.counters();
        auto raw = slurp(path);
        ASSERT_GT(raw.size(), 36u);
        ASSERT_EQ(raw[8], cache::recordVersion);
        raw[8] = version;
        raw.resize(raw.size() - 8);
        if (version == 2) {
            const std::string text = "node0.home.trapsRaised 0\n";
            bin::Writer w;
            w.str(text);
            raw.insert(raw.end(), w.out.begin(), w.out.end());
        }
        const std::uint64_t seal =
            version == 1
                ? bin::fnv1a(bin::fnvOffset, raw.data(), raw.size())
                : bin::checksum(raw.data(), raw.size());
        for (int i = 0; i < 8; ++i)
            raw.push_back(static_cast<std::uint8_t>(seal >> (8 * i)));
        spit(path, raw);

        RunRecord out;
        EXPECT_FALSE(rcache.lookup(spec, out));
        auto c = rcache.counters();
        EXPECT_EQ(c.stale, before.stale + 1);
        EXPECT_EQ(c.corrupt, 0u);
        EXPECT_EQ(c.misses, before.misses + 1);

        const RunRecord recomputed = runner.execute(spec);
        EXPECT_EQ(canonicalJson(recomputed), canonicalJson(direct));
        EXPECT_EQ(rcache.counters().stores, before.stores + 1);
        EXPECT_EQ(slurp(path)[8], cache::recordVersion);
        EXPECT_EQ(entryFiles(dir).size(), 1u);
    }

    const RunRecord served = runner.execute(spec);
    EXPECT_EQ(canonicalJson(served), canonicalJson(direct));
    EXPECT_EQ(rcache.counters().hits, 1u);
}

// The swex-rec layout, pinned: a digest of the bytes encodeRecord
// writes for a fixed record, key and fingerprint. A change to the
// layout moves it, and must come with a new recordVersion so entries
// older builds wrote read as stale.
TEST(RecordIo, EncodingIsPinned)
{
    RunRecord r;
    r.id = "pin/worker/H5";
    r.app = "worker";
    r.protocol = "DirnH5SNB";
    r.machineModel = "directory";
    r.nodes = 16;
    r.simCycles = 20929;
    r.verified = true;
    r.status = "deadline";
    r.lastProgress = 17;
    r.stallSummary = "home 3: stuck";
    r.faultDrop = 1;
    r.faultDup = 2;
    r.faultBlackout = 3;
    r.faultSeed = 4;
    r.deadline = 5;
    r.imageHash = 0xfeedfacecafebeefull;
    r.trapsRaised = 6;
    r.handlerCycles = 7.5;
    r.messages = 8;
    r.readHandlerMean = 0.1;
    r.readHandlerCount = 9;
    r.writeHandlerMean = 1.0 / 3.0;
    r.writeHandlerCount = 10;
    r.hostWallSeconds = 0.25;
    r.hostEvents = 11;
    r.audited = true;
    r.auditTransitions = 12;
    r.auditViolations = 13;
    r.seqCycles = 14;
    r.speedup = 1.5;
    r.workerSets = {3, 1, 4};
    r.statsJson = "{\"home\":{\"traps\":2}}";
    const std::vector<std::uint8_t> raw =
        cache::encodeRecord(r, 0x0123456789abcdefull,
                            0xfedcba9876543210ull);
    ASSERT_EQ(raw[8], cache::recordVersion);
    EXPECT_EQ(raw.size(), 343u);
    EXPECT_EQ(bin::fnv1a(bin::fnvOffset, raw.data(), raw.size()),
              0x16c32bf2be28dfa0ull);
}

TEST(ResultCache, MissThenStoreThenByteIdenticalHit)
{
    setQuiet(true);
    cache::ResultCache rcache(scratchDir("roundtrip"));

    Runner cold;
    cold.attachCache(&rcache);
    const RunRecord direct = cold.execute(workerSpec("cache/rt"));
    ASSERT_TRUE(direct.verified);

    auto c = rcache.counters();
    EXPECT_EQ(c.hits, 0u);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.stores, 1u);
    EXPECT_TRUE(fileExists(rcache.entryPath(workerSpec("cache/rt"))));

    Runner warm;
    warm.attachCache(&rcache);
    const RunRecord served = warm.execute(workerSpec("cache/rt"));

    c = rcache.counters();
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(canonicalJson(served), canonicalJson(direct));

    // A different cell is a different key: no false hit.
    ExperimentSpec other = workerSpec("cache/rt");
    other.params["wss"] = "4";
    EXPECT_NE(cache::ResultCache::specKey(other),
              cache::ResultCache::specKey(workerSpec("cache/rt")));
    EXPECT_FALSE(rcache.contains(other));
}

TEST(ResultCache, ExperimentKeysArePinned)
{
    // Every result-cache key, entry file name and exact-config trace
    // name derives from these two hashes; a refactor of the machine
    // configuration must leave them unchanged.
    auto spec = [](const std::string &id) {
        return ExperimentSpec{.id = id,
                              .app = "worker",
                              .params = {{"wss", "8"}},
                              .nodes = 16,
                              .victimEntries = 6};
    };
    ExperimentSpec dir = spec("fp/dir");
    ExperimentSpec snoop = spec("fp/snoop");
    snoop.machineModel = MachineModel::Snoop;
    snoop.snoopProtocol = SnoopProtocol::Mesif;
    snoop.busArbitration = BusArbitration::RoundRobin;
    ExperimentSpec faults = spec("fp/faults");
    faults.protocol = ProtocolConfig::hw(1);
    faults.jitterMax = 37;
    faults.jitterSeed = 3;
    faults.faultDropPerMille = 20;
    faults.faultDupPerMille = 10;
    faults.faultBlackoutPerMille = 5;
    faults.faultSeed = 3;
    faults.deadline = 20'000'000;
    ExperimentSpec seq = spec("fp/seq");
    seq.sequential = true;

    struct Pin
    {
        const ExperimentSpec &spec;
        std::uint64_t fingerprint;
        std::uint64_t key;
    };
    const Pin pins[] = {
        {dir, 0x82fb698cf3e0023aull, 0x537300ea35f90865ull},
        {snoop, 0x8ac5dce0f2b2d63dull, 0xe5d237438d6f64c0ull},
        {faults, 0x90c31744cd1540a9ull, 0x83eb0154efde0c90ull},
        {seq, 0x4cde9e0379de8ba6ull, 0x44c9f142a202e752ull},
    };
    for (const Pin &p : pins) {
        SCOPED_TRACE(p.spec.id);
        EXPECT_EQ(trace::configFingerprint(Runner::machineFor(p.spec)),
                  p.fingerprint);
        EXPECT_EQ(cache::ResultCache::specKey(p.spec), p.key);
    }
}

// One fingerprint covers every source: a snoop cell that tracks
// sharing runs the directory stack's SharingTracker, so no split of
// the sources by backend is sound. Under another build's fingerprint
// both cells read stale, both entries go, and both recomputes give
// the bytes the first build stored.
TEST(ResultCache, ANewBuildSendsEveryCellCold)
{
    setQuiet(true);
    const std::string dir = scratchDir("invalidate");

    const ExperimentSpec dirCell = workerSpec("cache/dir");
    ExperimentSpec busCell = snoopSpec("cache/bus");
    busCell.trackSharing = true;

    std::string dirBytes, busBytes;
    {
        cache::ResultCache rcache(dir);
        Runner runner;
        runner.attachCache(&rcache);
        const RunRecord d = runner.execute(dirCell);
        const RunRecord b = runner.execute(busCell);
        ASSERT_TRUE(d.verified);
        ASSERT_TRUE(b.verified);
        ASSERT_FALSE(b.workerSets.empty());
        ASSERT_EQ(rcache.counters().stores, 2u);
        dirBytes = canonicalJson(d);
        busBytes = canonicalJson(b);
    }

    cache::ResultCache rcache(dir, cache::buildFingerprint() + 1);
    RunRecord out;
    EXPECT_FALSE(rcache.lookup(dirCell, out));
    EXPECT_FALSE(rcache.lookup(busCell, out));
    auto c = rcache.counters();
    EXPECT_EQ(c.hits, 0u);
    EXPECT_EQ(c.stale, 2u);
    EXPECT_EQ(c.corrupt, 0u);
    EXPECT_EQ(c.misses, 2u);
    EXPECT_FALSE(fileExists(rcache.entryPath(dirCell)));
    EXPECT_FALSE(fileExists(rcache.entryPath(busCell)));
    EXPECT_TRUE(entryFiles(dir).empty());

    Runner runner;
    runner.attachCache(&rcache);
    EXPECT_EQ(canonicalJson(runner.execute(dirCell)), dirBytes);
    EXPECT_EQ(canonicalJson(runner.execute(busCell)), busBytes);
    c = rcache.counters();
    EXPECT_EQ(c.stores, 2u);
    EXPECT_EQ(entryFiles(dir).size(), 2u);
}

TEST(ResultCache, CorruptEntryFallsBackToRecompute)
{
    setQuiet(true);
    cache::ResultCache rcache(scratchDir("corrupt"));
    const ExperimentSpec spec = workerSpec("cache/corrupt");

    Runner runner;
    runner.attachCache(&rcache);
    const RunRecord direct = runner.execute(spec);
    ASSERT_TRUE(direct.verified);

    // Flip one payload byte: the whole-file checksum must catch it.
    const std::string path = rcache.entryPath(spec);
    auto raw = slurp(path);
    ASSERT_GT(raw.size(), 64u);
    raw[raw.size() / 2] ^= 0xff;
    spit(path, raw);

    RunRecord out;
    EXPECT_FALSE(rcache.lookup(spec, out));
    auto c = rcache.counters();
    EXPECT_EQ(c.corrupt, 1u);
    EXPECT_FALSE(fileExists(path)) << "corrupt entry not deleted";

    // The Runner's transparent fallback: recompute, re-store, and the
    // replacement serves the same bytes as the original direct run.
    const RunRecord recomputed = runner.execute(spec);
    EXPECT_EQ(canonicalJson(recomputed), canonicalJson(direct));
    const RunRecord served = runner.execute(spec);
    EXPECT_EQ(canonicalJson(served), canonicalJson(direct));
    c = rcache.counters();
    EXPECT_EQ(c.stores, 2u);
    EXPECT_EQ(c.hits, 1u);

    // Truncation is equally fatal: cut the stored entry short.
    auto whole = slurp(path);
    ASSERT_GT(whole.size(), 40u);
    whole.resize(40);
    spit(path, whole);
    EXPECT_FALSE(rcache.lookup(spec, out));
    EXPECT_EQ(rcache.counters().corrupt, 2u);
}

TEST(ResultCache, WarmSweepIsJobsInvariant)
{
    setQuiet(true);
    cache::ResultCache rcache(scratchDir("jobs"));

    std::vector<ExperimentSpec> specs;
    for (int wss : {2, 3, 4, 5}) {
        ExperimentSpec s = workerSpec("cache/jobs/w" +
                                      std::to_string(wss));
        s.params["wss"] = std::to_string(wss);
        specs.push_back(std::move(s));
    }

    // Cold at full parallelism, warm serially: per-cell canonical
    // documents must match, so a cached re-sweep can never depend on
    // the --jobs level that populated the cache.
    Runner cold;
    cold.attachCache(&rcache);
    const auto coldRecs = cold.runAll(specs, 4);

    Runner warm;
    warm.attachCache(&rcache);
    const auto warmRecs = warm.runAll(specs, 1);

    ASSERT_EQ(coldRecs.size(), specs.size());
    ASSERT_EQ(warmRecs.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(canonicalJson(*warmRecs[i]),
                  canonicalJson(*coldRecs[i])) << specs[i].id;

    auto c = rcache.counters();
    EXPECT_EQ(c.stores, specs.size());
    EXPECT_EQ(c.hits, specs.size());
}

TEST(ResultCache, AHitIsAPureRead)
{
    setQuiet(true);
    cache::ResultCache rcache(scratchDir("pureread"));
    ExperimentSpec a = workerSpec("cache/pureread/a");
    Runner runner;
    runner.attachCache(&rcache);
    ASSERT_TRUE(runner.execute(a).verified);

    // A hit loads the entry and writes nothing, its mtime included.
    setMtime(rcache.entryPath(a), 1000);
    RunRecord out;
    ASSERT_TRUE(rcache.lookup(a, out));
    struct stat st;
    ASSERT_EQ(::stat(rcache.entryPath(a).c_str(), &st), 0);
    EXPECT_EQ(st.st_mtim.tv_sec, 1000);
    EXPECT_EQ(rcache.counters().hits, 1u);
}
