/**
 * @file
 * Processor-model tests: instruction-fetch footprint behavior (the
 * Figure 3 mechanism), handler preemption accounting, the livelock
 * watchdog, and the sharing tracker's worker-set measurement.
 */

#include <gtest/gtest.h>

#include "apps/worker.hh"
#include "core/spectrum.hh"
#include "machine/mem_api.hh"
#include "runtime/shmem.hh"

using namespace swex;

namespace
{

MachineConfig
cfg(int nodes, ProtocolConfig p = ProtocolConfig::hw(5))
{
    MachineConfig mc;
    mc.numNodes = nodes;
    mc.protocol = p;
    return mc;
}

} // anonymous namespace

TEST(Ifetch, FootprintMissesOnlyOnceWhenResident)
{
    Machine m(cfg(1));
    std::vector<Addr> fp;
    for (int k = 0; k < 4; ++k)
        fp.push_back(m.instrBase(0) + 3000 * blockBytes +
                     static_cast<Addr>(k) * blockBytes);
    m.run([&](Mem &mem, int) -> Task<void> {
        mem.setFootprint(fp);
        for (int i = 0; i < 10; ++i)
            co_await mem.work(100);
    }, 1);
    // 4 cold misses, then the footprint stays resident.
    EXPECT_DOUBLE_EQ(m.sumStat("cachectrl.cache.instrMisses"), 4.0);
    EXPECT_DOUBLE_EQ(m.sumStat("cachectrl.cache.instrHits"), 36.0);
}

TEST(Ifetch, CollidingDataEvictsInstructions)
{
    Machine m(cfg(1));
    std::vector<Addr> fp = {m.instrBase(0)};   // cache set 0
    Addr colliding = m.allocAtIndex(0, blockBytes, 0);
    m.run([&](Mem &mem, int) -> Task<void> {
        mem.setFootprint(fp);
        for (int i = 0; i < 8; ++i) {
            co_await mem.work(50);            // touches set 0 (instr)
            co_await mem.read(colliding);     // evicts it (data)
        }
    }, 1);
    // Every work() re-misses the instruction block.
    EXPECT_GE(m.sumStat("cachectrl.cache.instrMisses"), 8.0);
}

TEST(Ifetch, PerfectIfetchCostsNothing)
{
    MachineConfig mc = cfg(1);
    mc.perfectIfetch = true;
    Machine m(mc);
    std::vector<Addr> fp = {m.instrBase(0)};
    Addr colliding = m.allocAtIndex(0, blockBytes, 0);
    m.run([&](Mem &mem, int) -> Task<void> {
        mem.setFootprint(fp);
        for (int i = 0; i < 8; ++i) {
            co_await mem.work(50);
            co_await mem.read(colliding);
        }
    }, 1);
    EXPECT_DOUBLE_EQ(m.sumStat("proc.ifetchPenalty"), 0.0);
    EXPECT_DOUBLE_EQ(m.sumStat("cachectrl.cache.instrMisses"), 0.0);
}

TEST(Ifetch, VictimCacheTurnsThrashIntoSwaps)
{
    auto run = [](unsigned victim_entries) {
        MachineConfig mc = cfg(1);
        mc.victimEntries = victim_entries;
        Machine m(mc);
        std::vector<Addr> fp = {m.instrBase(0)};
        Addr colliding = m.allocAtIndex(0, blockBytes, 0);
        Tick t = m.run([&](Mem &mem, int) -> Task<void> {
            mem.setFootprint(fp);
            for (int i = 0; i < 50; ++i) {
                co_await mem.work(20);
                co_await mem.read(colliding);
            }
        }, 1);
        return t;
    };
    Tick thrash = run(0);
    Tick swaps = run(6);
    EXPECT_GT(thrash, swaps + 200);
}

TEST(Processor, HandlerCyclesAreStolenFromUser)
{
    // A 16-node WORKER run with overflowing worker sets: the home
    // processors' handler cycles must show up, and user+handler time
    // cannot exceed wall time on any node.
    Machine m(cfg(16));
    WorkerConfig wc;
    wc.workerSetSize = 10;
    wc.iterations = 5;
    WorkerApp app(wc);
    Tick t = app.runParallel(m);
    EXPECT_TRUE(app.verify(m));

    double handler = m.sumStat("proc.handlerCycles");
    EXPECT_GT(handler, 0.0);
    for (const auto &node : m.nodes) {
        auto user = dynamic_cast<const stats::Scalar *>(
            node->statsGroup.find("proc.userCycles"));
        auto hdl = dynamic_cast<const stats::Scalar *>(
            node->statsGroup.find("proc.handlerCycles"));
        ASSERT_NE(user, nullptr);
        ASSERT_NE(hdl, nullptr);
        EXPECT_LE(user->value() + hdl->value(),
                  static_cast<double>(t) + 1);
    }
}

TEST(Processor, WatchdogFiresUnderAckProtocolPressure)
{
    // Hammer one home with software-handled acknowledgments while its
    // own thread tries to compute: the watchdog must intervene.
    Machine m(cfg(8, ProtocolConfig::h0()));
    SharedArray data(m, 8 * wordsPerBlock, Layout::OnNode, 0);
    data.fill(m, 0);
    m.run([&](Mem &mem, int tid) -> Task<void> {
        if (tid == 0) {
            // Home node's user thread wants CPU time.
            for (int i = 0; i < 50; ++i)
                co_await mem.work(200);
        } else {
            for (int i = 0; i < 25; ++i) {
                Addr a = data.at(static_cast<std::size_t>(
                                     (tid + i) % 8) *
                                 wordsPerBlock);
                co_await mem.fetchAdd(a, 1);
                co_await mem.work(30);
            }
        }
    });
    m.checkInvariants();
    EXPECT_GT(m.sumStat("proc.watchdogFirings"), 0.0);
}

TEST(SharingTrackerTest, WorkerSetsMeasuredExactly)
{
    // WORKER with worker-set size 6: at end of run every block's
    // tracked set has exactly 6 readers (+ the writer).
    MachineConfig mc = cfg(16, ProtocolConfig::fullMap());
    mc.trackSharing = true;
    Machine m(mc);
    WorkerConfig wc;
    wc.workerSetSize = 6;
    wc.iterations = 3;
    WorkerApp app(wc);
    app.runParallel(m);
    EXPECT_TRUE(app.verify(m));

    auto hist = m.tracker.endOfRunHistogram(16);
    // The 16 WORKER blocks: after the final write each set contains
    // the writer (reset on write) plus any subsequent readers; the
    // write-time samples carry the full sets.
    const auto &samples = m.tracker.writeTimeSamples();
    ASSERT_FALSE(samples.empty());
    // Steady-state write-time worker sets contain the 6 readers plus
    // the writer = 7 nodes.
    int full_sets = 0;
    for (auto s : samples)
        if (s == 7)
            ++full_sets;
    EXPECT_GT(full_sets, 16);   // most iterations after warmup
    (void)hist;
}

TEST(MachineLayout, AllocAtIndexHitsRequestedSet)
{
    Machine m(cfg(4));
    for (unsigned idx : {0u, 1u, 777u, 4095u}) {
        Addr a = m.allocAtIndex(2, blockBytes, idx);
        EXPECT_EQ(m.cacheIndexOf(a), idx);
        EXPECT_EQ(m.homeOf(a), 2);
    }
}

TEST(MachineLayout, HeapAvoidsFootprintSets)
{
    Machine m(cfg(2));
    Addr first = m.allocOn(0, blockBytes, blockBytes);
    // Default footprints occupy sets 0..7; the heap starts above.
    EXPECT_GE(m.cacheIndexOf(first), 8u);
}
