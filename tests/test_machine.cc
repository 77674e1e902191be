/**
 * @file
 * End-to-end integration tests of the complete machine: simple
 * programs running over the full protocol/network/cache stack, the
 * processor-side cache controller on both machine models, the WORKER
 * benchmark under every protocol, and system-wide coherence
 * invariants at quiescence.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "apps/worker.hh"
#include "core/spectrum.hh"
#include "machine/mem_api.hh"
#include "machine/node.hh"
#include "runtime/sync.hh"

using namespace swex;

namespace
{

MachineConfig
smallConfig(ProtocolConfig p, int nodes = 4)
{
    MachineConfig mc;
    mc.numNodes = nodes;
    mc.protocol = p;
    return mc;
}

} // anonymous namespace

TEST(MachineBasics, SingleNodeWriteThenRead)
{
    Machine m(smallConfig(ProtocolConfig::fullMap(), 1));
    Addr a = m.allocOn(0, 64);
    std::vector<Word> seen;
    m.run([&](Mem &mem, int) -> Task<void> {
        co_await mem.write(a, 123);
        co_await mem.write(a + 8, 456);
        seen.push_back(co_await mem.read(a));
        seen.push_back(co_await mem.read(a + 8));
    }, 1);
    EXPECT_EQ(seen, (std::vector<Word>{123, 456}));
    m.checkInvariants();
}

TEST(MachineBasics, WorkAdvancesTime)
{
    Machine m(smallConfig(ProtocolConfig::fullMap(), 1));
    Tick t = m.run([&](Mem &mem, int) -> Task<void> {
        co_await mem.work(1000);
    }, 1);
    EXPECT_GE(t, 1000u);
    EXPECT_LT(t, 1100u);
}

TEST(MachineBasics, RemoteReadSeesRemoteWrite)
{
    for (const auto &[label, proto] : protocolSpectrum()) {
        SCOPED_TRACE(label);
        Machine m(smallConfig(proto));
        Addr flag = m.allocOn(1, blockBytes, blockBytes);
        Addr data = m.allocOn(2, blockBytes, blockBytes);
        Word got = 0;
        m.run([&](Mem &mem, int tid) -> Task<void> {
            if (tid == 0) {
                co_await mem.write(data, 777);
                co_await mem.write(flag, 1);
            } else if (tid == 1) {
                while (co_await mem.read(flag) != 1)
                    co_await mem.work(20);
                got = co_await mem.read(data);
            }
        }, 2);
        EXPECT_EQ(got, 777u);
        m.checkInvariants();
    }
}

TEST(MachineBasics, DirtyCopyFetchedFromOwner)
{
    // Node 0 writes (dirty copy), node 1 then reads: the home must
    // fetch from the owner, not serve stale memory.
    for (const auto &[label, proto] : protocolSpectrum()) {
        SCOPED_TRACE(label);
        Machine m(smallConfig(proto));
        Addr a = m.allocOn(3, blockBytes, blockBytes);
        Addr flag = m.allocOn(2, blockBytes, blockBytes);
        Word got = 0;
        m.run([&](Mem &mem, int tid) -> Task<void> {
            if (tid == 0) {
                co_await mem.write(a, 41);
                co_await mem.write(a, 42);   // still dirty in cache
                co_await mem.write(flag, 1);
            } else if (tid == 1) {
                while (co_await mem.read(flag) != 1)
                    co_await mem.work(20);
                got = co_await mem.read(a);
            }
        }, 2);
        EXPECT_EQ(got, 42u);
        m.checkInvariants();
    }
}

TEST(MachineBasics, AtomicFetchAddIsAtomicAcrossNodes)
{
    for (const auto &[label, proto] : protocolSpectrum()) {
        SCOPED_TRACE(label);
        Machine m(smallConfig(proto));
        Addr ctr = m.allocOn(0, blockBytes, blockBytes);
        const int per_thread = 20;
        m.run([&](Mem &mem, int) -> Task<void> {
            for (int i = 0; i < per_thread; ++i) {
                co_await mem.fetchAdd(ctr, 1);
                co_await mem.work(13);
            }
        });
        EXPECT_EQ(m.debugRead(ctr),
                  static_cast<Word>(4 * per_thread));
        m.checkInvariants();
    }
}

TEST(MachineBasics, SwapImplementsMutualExclusion)
{
    Machine m(smallConfig(ProtocolConfig::hw(2)));
    SpinLock lock = SpinLock::create(m, 0);
    Addr shared = m.allocOn(1, blockBytes, blockBytes);
    m.debugWrite(shared, 0);
    m.run([&](Mem &mem, int) -> Task<void> {
        for (int i = 0; i < 10; ++i) {
            co_await lock.acquire(mem);
            // Non-atomic read-modify-write under the lock.
            Word v = co_await mem.read(shared);
            co_await mem.work(37);
            co_await mem.write(shared, v + 1);
            co_await lock.release(mem);
        }
    });
    EXPECT_EQ(m.debugRead(shared), 40u);
    m.checkInvariants();
}

// A run with no deadline of its own runs against maxTicks: a runaway
// or deadlocked program ends as a run status, not the process.
TEST(MachineBasics, ARunawayLoopEndsPastMaxTicks)
{
    Machine m(smallConfig(ProtocolConfig::fullMap(), 1));
    ASSERT_EQ(m.config().deadline, 0u);
    Tick t = m.run([&](Mem &mem, int) -> Task<void> {
        for (;;)
            co_await mem.work(1'000'000);
    }, 1);
    EXPECT_EQ(m.runStatus(), Machine::RunStatus::DeadlineExceeded);
    EXPECT_GT(t, maxTicks);
}

TEST(MachineBasics, ABarrierAFinishedThreadNeverReachesDeadlocks)
{
    Machine m(smallConfig(ProtocolConfig::fullMap(), 2));
    ASSERT_EQ(m.config().deadline, 0u);
    m.run([&](Mem &mem, int tid) -> Task<void> {
        if (tid == 0)
            co_await mem.hwBarrier();   // waits for thread 1 forever
        else
            co_await mem.work(100);
    });
    EXPECT_EQ(m.runStatus(), Machine::RunStatus::Deadlocked);
}

TEST(MachineBasics, BarrierSynchronizesPhases)
{
    Machine m(smallConfig(ProtocolConfig::hw(5), 4));
    const TreeBarrier proto = TreeBarrier::create(m, 4);
    SharedArray phase_flags(m, 4, Layout::Interleaved);
    phase_flags.fill(m, 0);
    bool order_ok = true;
    m.run([&](Mem &mem, int tid) -> Task<void> {
        TreeBarrier bar = proto;   // each thread counts its own epochs
        for (int ph = 1; ph <= 3; ++ph) {
            co_await mem.write(
                phase_flags.at(static_cast<size_t>(tid)),
                static_cast<Word>(ph));
            co_await bar.wait(mem);
            // After the barrier every flag must show this phase.
            for (int j = 0; j < 4; ++j) {
                Word v = co_await mem.read(
                    phase_flags.at(static_cast<size_t>(j)));
                if (v != static_cast<Word>(ph))
                    order_ok = false;
            }
            co_await bar.wait(mem);
        }
    });
    EXPECT_TRUE(order_ok);
    m.checkInvariants();
}

TEST(MachineBasics, EvictionWritebackPreservesData)
{
    // Write enough conflicting blocks to force dirty evictions, then
    // read everything back.
    Machine m(smallConfig(ProtocolConfig::hw(5), 2));
    // 64 KB cache, 16 B lines -> 4096 sets; use stride = 4096 blocks.
    std::vector<Addr> addrs;
    for (int i = 0; i < 8; ++i)
        addrs.push_back(m.allocOn(1, blockBytes, blockBytes) +
                        static_cast<Addr>(0));
    // Force conflicts by using one set: allocate at the same index.
    addrs.clear();
    for (int i = 0; i < 8; ++i)
        addrs.push_back(m.allocAtIndex(1, blockBytes, 100));
    bool all_match = true;
    m.run([&](Mem &mem, int tid) -> Task<void> {
        if (tid != 0)
            co_return;
        for (std::size_t i = 0; i < addrs.size(); ++i)
            co_await mem.write(addrs[i], 1000 + i);
        for (std::size_t i = 0; i < addrs.size(); ++i) {
            Word v = co_await mem.read(addrs[i]);
            if (v != 1000 + i)
                all_match = false;
        }
    }, 1);
    EXPECT_TRUE(all_match);
    for (std::size_t i = 0; i < addrs.size(); ++i)
        EXPECT_EQ(m.debugRead(addrs[i]), 1000 + i);
    m.checkInvariants();
}

// ------------------------------------------------------------------
// The processor-side cache controller both machine models share
// ------------------------------------------------------------------

namespace
{

struct FrontEndCase
{
    const char *label;
    MachineModel model;
    SnoopProtocol snoop;   ///< MachineModel::Snoop only
};

const FrontEndCase frontEndCases[] = {
    {"DirectoryH5", MachineModel::Directory, SnoopProtocol::Mesi},
    {"Mesi", MachineModel::Snoop, SnoopProtocol::Mesi},
    {"Moesi", MachineModel::Snoop, SnoopProtocol::Moesi},
    {"Mesif", MachineModel::Snoop, SnoopProtocol::Mesif},
    {"Dragon", MachineModel::Snoop, SnoopProtocol::Dragon},
};

class SharedFrontEnd : public ::testing::TestWithParam<FrontEndCase>
{};

double
scalarStat(const stats::Group &g, const std::string &path)
{
    const auto *s = dynamic_cast<const stats::Scalar *>(g.find(path));
    EXPECT_NE(s, nullptr) << path;
    return s ? s->value() : -1.0;
}

} // anonymous namespace

/**
 * One thread's load, store, fetch-add, swap and load of a block homed
 * at the other node, then a compute segment whose one instruction
 * block maps to the data block's cache set. The hit path, the op
 * application, the miss fills and the instruction fill's dirty
 * eviction are the same code on both models; only how a miss is
 * served differs (a Shared fill then an upgrade miss on the directory,
 * one Exclusive fill and a silent E->M upgrade on the bus).
 */
TEST_P(SharedFrontEnd, OpsHitsMissesAndDirtyInstructionEviction)
{
    const FrontEndCase &fc = GetParam();
    MachineConfig mc;
    mc.numNodes = 2;
    mc.machineModel = fc.model;
    mc.protocol = ProtocolConfig::hw(5);
    mc.snoopProtocol = fc.snoop;
    mc.busArbitration = BusArbitration::Fifo;
    mc.victimEntries = 0;
    Machine m(mc);
    const Addr a = m.allocOn(1, blockBytes, blockBytes);
    const Addr code = m.instrBase(0) +
                      static_cast<Addr>(m.cacheIndexOf(a)) * blockBytes;
    ASSERT_EQ(m.cacheIndexOf(code), m.cacheIndexOf(a));

    std::vector<Word> got;
    m.run([&](Mem &mem, int) -> Task<void> {
        got.push_back(co_await mem.read(a));
        co_await mem.write(a, 5);
        got.push_back(co_await mem.fetchAdd(a, 3));
        got.push_back(co_await mem.swap(a, 9));
        got.push_back(co_await mem.read(a));
        mem.setFootprint({code});
        co_await mem.work(10);
    }, 1);
    EXPECT_EQ(got, (std::vector<Word>{0, 5, 8, 9}));

    const stats::Group &g = m.nodes[0]->statsGroup;
    EXPECT_EQ(scalarStat(g, "cachectrl.loads"), 2.0);
    EXPECT_EQ(scalarStat(g, "cachectrl.stores"), 1.0);
    EXPECT_EQ(scalarStat(g, "cachectrl.atomics"), 2.0);
    EXPECT_EQ(scalarStat(g, "cachectrl.cache.instrMisses"), 1.0);
    EXPECT_EQ(scalarStat(g, "cachectrl.cache.dirtyEvictions"), 1.0);
    if (fc.model == MachineModel::Directory) {
        // The load fills Shared, so the store is an upgrade miss.
        EXPECT_EQ(scalarStat(g, "cachectrl.cache.dataHits"), 3.0);
        EXPECT_EQ(scalarStat(g, "cachectrl.cache.dataMisses"), 2.0);
    } else {
        // The sole reader holds the line Exclusive and writes it
        // without a bus transaction.
        EXPECT_EQ(scalarStat(g, "cachectrl.cache.dataHits"), 4.0);
        EXPECT_EQ(scalarStat(g, "cachectrl.cache.dataMisses"), 1.0);
        EXPECT_EQ(scalarStat(m.root, "bus.reads"), 1.0);
        EXPECT_EQ(scalarStat(m.root, "bus.readExcl"), 0.0);
        EXPECT_EQ(scalarStat(m.root, "bus.upgrades"), 0.0);
        EXPECT_EQ(scalarStat(m.root, "bus.writebacks"), 1.0);
    }
    // The evicted dirty line reached home memory.
    EXPECT_EQ(m.nodes[1]->mem.readWord(a), 9u);
    m.checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    BothModels, SharedFrontEnd, ::testing::ValuesIn(frontEndCases),
    [](const ::testing::TestParamInfo<FrontEndCase> &param_info) {
        return std::string(param_info.param.label);
    });

// ------------------------------------------------------------------
// WORKER across the protocol spectrum
// ------------------------------------------------------------------

class WorkerAllProtocols
    : public ::testing::TestWithParam<SpectrumPoint>
{};

TEST_P(WorkerAllProtocols, RunsCorrectlyOn16Nodes)
{
    const auto &pt = GetParam();
    MachineConfig mc;
    mc.numNodes = 16;
    mc.protocol = pt.protocol;
    Machine m(mc);
    WorkerConfig wc;
    wc.workerSetSize = 8;
    wc.iterations = 3;
    WorkerApp app(wc);
    Tick t = app.runParallel(m);
    EXPECT_GT(t, 0u);
    EXPECT_TRUE(app.verify(m));
    m.checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    Spectrum, WorkerAllProtocols,
    ::testing::ValuesIn(protocolSpectrum()),
    [](const ::testing::TestParamInfo<SpectrumPoint> &param_info) {
        std::string n = param_info.param.label;
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

TEST(WorkerOrdering, FullMapNoSlowerThanSoftwareOnly)
{
    auto run_with = [](ProtocolConfig p) {
        MachineConfig mc;
        mc.numNodes = 16;
        mc.protocol = p;
        Machine m(mc);
        WorkerConfig wc;
        wc.workerSetSize = 8;
        wc.iterations = 5;
        WorkerApp app(wc);
        Tick t = app.runParallel(m);
        EXPECT_TRUE(app.verify(m));
        return t;
    };
    Tick full = run_with(ProtocolConfig::fullMap());
    Tick h5 = run_with(ProtocolConfig::hw(5));
    Tick h0 = run_with(ProtocolConfig::h0());
    EXPECT_LE(full, h5 * 105 / 100);   // full-map at least as fast
    EXPECT_LT(full, h0);               // software-only clearly slower
    EXPECT_LT(h5, h0);
}

TEST(WorkerOrdering, H5MatchesFullMapForSmallWorkerSets)
{
    auto run_with = [](ProtocolConfig p, int wss) {
        MachineConfig mc;
        mc.numNodes = 16;
        mc.protocol = p;
        Machine m(mc);
        WorkerConfig wc;
        wc.workerSetSize = wss;
        wc.iterations = 5;
        WorkerApp app(wc);
        return app.runParallel(m);
    };
    // Worker sets that fit in the 5 hw pointers + local bit: no
    // traps; timing matches full-map to within invalidation-ordering
    // noise (<1%).
    Tick h5 = run_with(ProtocolConfig::hw(5), 4);
    Tick full = run_with(ProtocolConfig::fullMap(), 4);
    double ratio = static_cast<double>(h5) / static_cast<double>(full);
    EXPECT_NEAR(ratio, 1.0, 0.01);
}

TEST(MachineStats, TrapsOccurOnlyPastHwCapacity)
{
    MachineConfig mc;
    mc.numNodes = 16;
    mc.protocol = ProtocolConfig::hw(5);
    Machine m(mc);
    WorkerConfig wc;
    wc.workerSetSize = 4;
    wc.iterations = 3;
    WorkerApp app(wc);
    app.runParallel(m);
    EXPECT_DOUBLE_EQ(m.sumStat("home.trapsRaised"), 0.0);

    MachineConfig mc2 = mc;
    Machine m2(mc2);
    WorkerConfig wc2;
    wc2.workerSetSize = 12;
    wc2.iterations = 3;
    WorkerApp app2(wc2);
    app2.runParallel(m2);
    EXPECT_GT(m2.sumStat("home.trapsRaised"), 0.0);
}

// ------------------------------------------------------------------
// Image hash and coherence check
// ------------------------------------------------------------------

namespace
{

/**
 * The image hash computed word by word through debugRead, which
 * probes every node's cache for a dirty copy before falling back to
 * home memory: the reference Machine::imageHash must match.
 */
std::uint64_t
referenceImageHash(const Machine &m)
{
    std::set<Addr> blocks;
    for (const auto &node : m.nodes) {
        node->mem.forEachBlock(
            [&](Addr a, const DataBlock &) { blocks.insert(a); });
        node->cache().forEachLine([&](const CacheLine &line) {
            if (line.state != LineState::Instr)
                blocks.insert(line.blockAddr);
        });
    }
    std::uint64_t h = 0x243f6a8885a308d3ULL;
    auto mix = [&h](std::uint64_t v) {
        std::uint64_t z = h ^ v;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        h = z ^ (z >> 31);
    };
    for (Addr b : blocks) {
        Word words[wordsPerBlock];
        bool nonzero = false;
        for (unsigned i = 0; i < wordsPerBlock; ++i) {
            words[i] = m.debugRead(b + i * sizeof(Word));
            nonzero = nonzero || words[i] != 0;
        }
        if (!nonzero)
            continue;
        mix(b);
        for (unsigned i = 0; i < wordsPerBlock; ++i)
            mix(words[i]);
    }
    return h;
}

} // anonymous namespace

TEST(MachineImage, HashMatchesPerWordDebugReadReference)
{
    for (const auto &[label, proto] : protocolSpectrum()) {
        SCOPED_TRACE(label);
        MachineConfig mc = smallConfig(proto);
        mc.victimEntries = 6;
        Machine m(mc);
        // Each thread writes four blocks that share one cache set,
        // so its first three dirty lines are pushed into the victim
        // buffer. Only the second starts with a value in memory (now
        // stale): the others, until a writeback, exist only in
        // caches. Each thread then reads its neighbour's last block,
        // which fetches that dirty copy back to memory and leaves two
        // shared copies behind.
        std::vector<std::vector<Addr>> mine(4);
        for (int t = 0; t < 4; ++t) {
            for (int i = 0; i < 4; ++i) {
                mine[static_cast<std::size_t>(t)].push_back(
                    m.allocAtIndex((t + 1) % 4, blockBytes,
                                   300 + static_cast<unsigned>(t)));
            }
            m.debugWrite(mine[static_cast<std::size_t>(t)][1], 999);
        }
        m.run([&](Mem &mem, int tid) -> Task<void> {
            const auto &own = mine[static_cast<std::size_t>(tid)];
            for (std::size_t i = 0; i < own.size(); ++i) {
                co_await mem.write(own[i],
                                   static_cast<Word>(100 * tid + i + 1));
                co_await mem.write(own[i] + sizeof(Word),
                                   static_cast<Word>(tid + 7));
            }
            co_await mem.work(200);
            (void)co_await mem.read(
                mine[static_cast<std::size_t>((tid + 1) % 4)].back());
        });
        m.checkInvariants();

        bool victim_dirty = false;
        bool cache_only = false;
        for (const auto &blocks : mine) {
            for (Addr a : blocks) {
                for (const auto &node : m.nodes) {
                    Cache &c = node->cache();
                    const CacheLine *line = c.peek(a);
                    if (!line || !line->dirty())
                        continue;
                    victim_dirty |= c.probeMain(a) == nullptr;
                    cache_only |= m.nodes[static_cast<std::size_t>(
                                              m.homeOf(a))]
                                      ->mem.readBlock(a) == DataBlock{};
                }
            }
        }
        EXPECT_TRUE(victim_dirty);
        EXPECT_TRUE(cache_only);
        EXPECT_EQ(m.imageHash(), referenceImageHash(m));
    }
}

TEST(MachineCoherenceDeath, SecondDirtyCopyPanics)
{
    Machine m(smallConfig(ProtocolConfig::fullMap()));
    Addr a = m.allocOn(2, blockBytes, blockBytes);
    m.run([&](Mem &mem, int) -> Task<void> {
        co_await mem.write(a, 5);
    }, 1);
    m.checkInvariants();
    DataBlock stale;
    stale.words = {6, 0};
    m.nodes[3]->cache().fill(a, LineState::Modified, stale);
    EXPECT_DEATH(m.checkInvariants(),
                 "two dirty copies: nodes 0 \\(Modified\\) and 3 "
                 "\\(Modified\\)");
}
