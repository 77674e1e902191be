/**
 * @file
 * Tests for the parallel runtime built on simulated shared memory:
 * shared-array layouts, spin locks, tree barriers, work queues with
 * batched transfer, and the work-stealing scheduler.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/spectrum.hh"
#include "machine/mem_api.hh"
#include "runtime/scheduler.hh"
#include "runtime/shmem.hh"
#include "runtime/sync.hh"

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

// ------------------------------------------------------------------
// SharedArray layouts
// ------------------------------------------------------------------

TEST(SharedArray, InterleavedSpreadsBlocksRoundRobin)
{
    Machine m(cfg(4));
    SharedArray a(m, 16 * wordsPerBlock, Layout::Interleaved);
    std::set<NodeId> homes;
    for (int b = 0; b < 16; ++b) {
        NodeId h = m.homeOf(a.at(
            static_cast<std::size_t>(b) * wordsPerBlock));
        EXPECT_EQ(h, b % 4);
        homes.insert(h);
    }
    EXPECT_EQ(homes.size(), 4u);
}

TEST(SharedArray, BlockedGivesContiguousChunks)
{
    Machine m(cfg(4));
    SharedArray a(m, 16 * wordsPerBlock, Layout::Blocked);
    for (int b = 0; b < 16; ++b) {
        NodeId h = m.homeOf(a.at(
            static_cast<std::size_t>(b) * wordsPerBlock));
        EXPECT_EQ(h, b / 4);
    }
}

TEST(SharedArray, OnNodeStaysHome)
{
    Machine m(cfg(4));
    SharedArray a(m, 8 * wordsPerBlock, Layout::OnNode, 2);
    for (int b = 0; b < 8; ++b)
        EXPECT_EQ(m.homeOf(a.at(
                      static_cast<std::size_t>(b) * wordsPerBlock)),
                  2);
}

TEST(SharedArray, WordsWithinBlockAreAdjacent)
{
    Machine m(cfg(4));
    SharedArray a(m, 4 * wordsPerBlock, Layout::Interleaved);
    EXPECT_EQ(a.at(1), a.at(0) + sizeof(Word));
    EXPECT_EQ(blockAlign(a.at(0)), blockAlign(a.at(1)));
    EXPECT_NE(blockAlign(a.at(0)),
              blockAlign(a.at(wordsPerBlock)));
}

TEST(SharedArray, FillInitializesEveryWord)
{
    Machine m(cfg(4));
    SharedArray a(m, 10, Layout::Interleaved);
    a.fill(m, 7);
    for (std::size_t i = 0; i < 10; ++i)
        EXPECT_EQ(m.debugRead(a.at(i)), 7u);
}

// ------------------------------------------------------------------
// TreeBarrier
// ------------------------------------------------------------------

TEST(TreeBarrier, SynchronizesManyPhases)
{
    for (int nodes : {1, 3, 8, 16}) {
        SCOPED_TRACE(nodes);
        Machine m(cfg(nodes));
        TreeBarrier proto = TreeBarrier::create(m, nodes);
        SharedArray phase(m,
                          static_cast<std::size_t>(nodes) *
                              wordsPerBlock,
                          Layout::Blocked);
        phase.fill(m, 0);
        bool ok = true;
        m.run([&, proto](Mem &mem, int tid) mutable -> Task<void> {
            TreeBarrier bar = proto;
            for (int ph = 1; ph <= 4; ++ph) {
                co_await mem.write(
                    phase.at(static_cast<std::size_t>(tid) *
                             wordsPerBlock),
                    static_cast<Word>(ph));
                co_await bar.wait(mem);
                for (int j = 0; j < nodes; ++j) {
                    Word v = co_await mem.read(
                        phase.at(static_cast<std::size_t>(j) *
                                 wordsPerBlock));
                    if (v != static_cast<Word>(ph))
                        ok = false;
                }
                co_await bar.wait(mem);
            }
        });
        EXPECT_TRUE(ok);
        m.checkInvariants();
    }
}

TEST(TreeBarrier, WorkerSetsFitHardwarePointers)
{
    // The point of the tree barrier: under H5, barrier traffic should
    // need (almost) no software extension.
    Machine m(cfg(16, ProtocolConfig::hw(5)));
    TreeBarrier proto = TreeBarrier::create(m, 16);
    m.run([&, proto](Mem &mem, int) mutable -> Task<void> {
        TreeBarrier bar = proto;
        for (int ph = 0; ph < 6; ++ph) {
            co_await mem.work(40);
            co_await bar.wait(mem);
        }
    });
    EXPECT_DOUBLE_EQ(m.sumStat("home.trapsRaised"), 0.0);
}

// ------------------------------------------------------------------
// WorkQueue batching
// ------------------------------------------------------------------

TEST(WorkQueue, FifoAcrossBatchedOps)
{
    Machine m(cfg(2));
    WorkQueue q = WorkQueue::create(m, 64, 0);
    std::vector<Word> drained;
    m.run([&](Mem &mem, int tid) -> Task<void> {
        if (tid != 0)
            co_return;
        std::vector<Word> first = {1, 2, 3};
        co_await q.pushMany(mem, first);
        co_await q.push(mem, 4);
        Word w = 0;
        while (co_await q.tryPop(mem, w))
            drained.push_back(w);
    }, 1);
    EXPECT_EQ(drained, (std::vector<Word>{1, 2, 3, 4}));
}

TEST(WorkQueue, TryPopManyTakesAtMostHalf)
{
    Machine m(cfg(2));
    WorkQueue q = WorkQueue::create(m, 64, 0);
    for (Word i = 0; i < 8; ++i)
        q.debugPush(m, i);
    std::size_t got = 0;
    m.run([&](Mem &mem, int tid) -> Task<void> {
        if (tid != 0)
            co_return;
        std::vector<Word> out;
        got = co_await q.tryPopMany(mem, out, 16);
    }, 1);
    EXPECT_EQ(got, 4u);   // half of 8
}

TEST(WorkQueue, PendingAccountsPushesAndFinishes)
{
    Machine m(cfg(2));
    WorkQueue q = WorkQueue::create(m, 64, 0);
    bool done_before = true, done_after = false;
    m.run([&](Mem &mem, int tid) -> Task<void> {
        if (tid != 0)
            co_return;
        std::vector<Word> items = {9, 9, 9};
        co_await q.pushMany(mem, items);
        done_before = co_await q.allDone(mem);
        Word w = 0;
        while (co_await q.tryPop(mem, w)) {}
        co_await q.finishItems(mem, 3);
        done_after = co_await q.allDone(mem);
    }, 1);
    EXPECT_FALSE(done_before);
    EXPECT_TRUE(done_after);
}

// ------------------------------------------------------------------
// StealScheduler
// ------------------------------------------------------------------

TEST(StealScheduler, ProcessesEveryItemExactlyOnce)
{
    for (const auto &pt :
         {SpectrumPoint{"H5", ProtocolConfig::hw(5)},
          SpectrumPoint{"H0", ProtocolConfig::h0()}}) {
        SCOPED_TRACE(pt.label);
        Machine m(cfg(8, pt.protocol));
        StealScheduler sched = StealScheduler::create(m, 512);
        std::vector<Word> seed;
        for (Word i = 1; i <= 40; ++i)
            seed.push_back(i);
        sched.debugSeed(m, seed);

        std::vector<int> seen(41, 0);
        m.run([&](Mem &mem, int tid) -> Task<void> {
            StealScheduler::Worker w(tid);
            Word item = 0;
            while (co_await sched.next(mem, w, item)) {
                ++seen[static_cast<std::size_t>(item)];
                co_await mem.work(80);
            }
        });
        for (int i = 1; i <= 40; ++i)
            EXPECT_EQ(seen[static_cast<std::size_t>(i)], 1)
                << "item " << i;
        m.checkInvariants();
    }
}

TEST(StealScheduler, DynamicChildrenAllProcessed)
{
    // Each item spawns children down to a depth; total processed must
    // equal the full tree size regardless of stealing.
    Machine m(cfg(8));
    StealScheduler sched = StealScheduler::create(m, 2048);
    sched.debugSeed(m, {1});   // root at depth encoded in value
    // item encoding: depth in low bits
    int processed = 0;
    m.run([&](Mem &mem, int tid) -> Task<void> {
        StealScheduler::Worker w(tid);
        Word item = 0;
        while (co_await sched.next(mem, w, item)) {
            ++processed;
            co_await mem.work(60);
            if (item <= 4) {   // depths 1..4 spawn 2 children each
                co_await sched.add(mem, w, item + 1);
                co_await sched.add(mem, w, item + 1);
            }
        }
    });
    // Tree: 1 + 2 + 4 + 8 + 16 = 31 nodes
    EXPECT_EQ(processed, 31);
}

TEST(StealScheduler, ADonationThatDoesNotFitStaysWithTheDonor)
{
    // One worker and no thief: its queue drains only when its stack
    // runs dry, so the second donation finds the 8-entry queue full.
    Machine m(cfg(1));
    StealScheduler sched = StealScheduler::create(m, 8);
    sched.debugSeed(m, {0});
    std::vector<int> seen(41, 0);
    m.run([&](Mem &mem, int tid) -> Task<void> {
        StealScheduler::Worker w(tid);
        Word item = 0;
        while (co_await sched.next(mem, w, item)) {
            ++seen[static_cast<std::size_t>(item)];
            if (item == 0) {   // the root spawns 40 leaves
                for (Word leaf = 1; leaf <= 40; ++leaf)
                    co_await sched.add(mem, w, leaf);
            }
        }
    });
    EXPECT_EQ(m.runStatus(), Machine::RunStatus::Completed);
    for (int i = 0; i <= 40; ++i)
        EXPECT_EQ(seen[static_cast<std::size_t>(i)], 1) << "item " << i;
}

// ------------------------------------------------------------------
// SpinLock under adversarial protocols
// ------------------------------------------------------------------

TEST(SpinLock, ExclusionHoldsUnderDir1SW)
{
    Machine m(cfg(8, ProtocolConfig::dir1sw()));
    SpinLock lock = SpinLock::create(m, 3);
    Addr shared = m.allocOn(4, blockBytes, blockBytes);
    m.debugWrite(shared, 0);
    m.run([&](Mem &mem, int) -> Task<void> {
        for (int i = 0; i < 5; ++i) {
            co_await lock.acquire(mem);
            Word v = co_await mem.read(shared);
            co_await mem.work(17);
            co_await mem.write(shared, v + 1);
            co_await lock.release(mem);
        }
    });
    EXPECT_EQ(m.debugRead(shared), 40u);
    m.checkInvariants();
}

// ------------------------------------------------------------------
// Machine fast barrier
// ------------------------------------------------------------------

TEST(HwBarrier, AllThreadsLeaveTogether)
{
    Machine m(cfg(8));
    std::vector<Tick> exit_ticks(8, 0);
    m.run([&](Mem &mem, int tid) -> Task<void> {
        co_await mem.work(static_cast<Cycles>(100 * (tid + 1)));
        co_await mem.hwBarrier();
        exit_ticks[static_cast<std::size_t>(tid)] =
            mem.machine().now();
    });
    Tick first = *std::min_element(exit_ticks.begin(),
                                   exit_ticks.end());
    Tick last = *std::max_element(exit_ticks.begin(),
                                  exit_ticks.end());
    // All released within the barrier latency window.
    EXPECT_LE(last - first, barrierLatency + 8);
    EXPECT_GE(first, 800u);   // nobody leaves before the slowest
}
