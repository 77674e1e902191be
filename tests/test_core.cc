/**
 * @file
 * Unit tests for the coherence core's passive pieces: protocol
 * notation, hardware directory entries, the software-extended
 * directory (hash table + free lists), and the Table-2 cost model.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <set>

#include "core/cost_model.hh"
#include "core/directory.hh"
#include "core/ext_directory.hh"
#include "core/protocol.hh"
#include "core/spectrum.hh"
#include "mem/block.hh"

using namespace swex;

TEST(ProtocolNotation, NamesMatchPaper)
{
    EXPECT_EQ(ProtocolConfig::fullMap().name(), "DirnHnbS-");
    EXPECT_EQ(ProtocolConfig::hw(5).name(), "DirnH5SNB");
    EXPECT_EQ(ProtocolConfig::hw(2).name(), "DirnH2SNB");
    EXPECT_EQ(ProtocolConfig::h1().name(), "DirnH1SNB");
    EXPECT_EQ(ProtocolConfig::h1Lack().name(), "DirnH1SNB,LACK");
    EXPECT_EQ(ProtocolConfig::h1Ack().name(), "DirnH1SNB,ACK");
    EXPECT_EQ(ProtocolConfig::h0().name(), "DirnH0SNB,ACK");
    EXPECT_EQ(ProtocolConfig::dir1sw().name(), "Dir1H1SB,LACK");
}

TEST(ProtocolNotation, EverySpectrumPointHasOneKey)
{
    const auto points = protocolSpectrum();
    ASSERT_EQ(std::size(spectrumKeys), points.size());
    for (const SpectrumPoint &pt : points) {
        ProtocolConfig parsed;
        ASSERT_TRUE(parseSpectrumKey(spectrumKey(pt.label), parsed))
            << pt.label;
        EXPECT_EQ(parsed.name(), pt.protocol.name());
    }
    ProtocolConfig unused;
    EXPECT_FALSE(parseSpectrumKey("H5", unused));
}

TEST(ProtocolNotation, WatchdogOnlyForAckProtocols)
{
    EXPECT_TRUE(ProtocolConfig::h0().needsWatchdog());
    EXPECT_TRUE(ProtocolConfig::h1Ack().needsWatchdog());
    EXPECT_FALSE(ProtocolConfig::h1Lack().needsWatchdog());
    EXPECT_FALSE(ProtocolConfig::hw(5).needsWatchdog());
    EXPECT_FALSE(ProtocolConfig::fullMap().needsWatchdog());
}

TEST(ProtocolNotation, LocalBitDisabledForH0)
{
    EXPECT_FALSE(ProtocolConfig::h0().localBit);
    EXPECT_TRUE(ProtocolConfig::hw(5).localBit);
}

TEST(DirEntry, PointerAddRemove)
{
    DirEntry e;
    e.addPtr(3, 5);
    e.addPtr(7, 5);
    EXPECT_TRUE(e.hasPtr(3));
    EXPECT_TRUE(e.hasPtr(7));
    EXPECT_FALSE(e.hasPtr(5));
    e.removePtr(3);
    EXPECT_FALSE(e.hasPtr(3));
    EXPECT_EQ(e.ptrCount, 1);
    e.removePtr(99);   // no-op
    EXPECT_EQ(e.ptrCount, 1);
}

TEST(DirEntry, ClearSharersResetsEverything)
{
    DirEntry e;
    e.addPtr(1, 5);
    e.localBit = true;
    e.broadcastBit = true;
    e.fullMap.set(12);
    e.clearSharers();
    EXPECT_EQ(e.ptrCount, 0);
    EXPECT_FALSE(e.localBit);
    EXPECT_FALSE(e.broadcastBit);
    EXPECT_TRUE(e.fullMap.none());
}

TEST(Directory, LazyEntries)
{
    Directory d;
    EXPECT_EQ(d.lookup(0x100), nullptr);
    d.entry(0x100).localBit = true;
    ASSERT_NE(d.lookup(0x100), nullptr);
    EXPECT_TRUE(d.lookup(0x100)->localBit);
    EXPECT_EQ(d.size(), 1u);
}

namespace
{

struct ExtDirTest : ::testing::Test
{
    stats::Group root;
    ExtDirectory ext{&root};
};

} // anonymous namespace

TEST_F(ExtDirTest, AllocLookupRelease)
{
    EXPECT_EQ(ext.lookup(0x40), nullptr);
    ExtEntry &e = ext.alloc(0x40);
    EXPECT_EQ(&ext.alloc(0x40), &e);   // idempotent
    EXPECT_EQ(ext.lookup(0x40), &e);
    EXPECT_EQ(ext.numEntries(), 1u);
    ext.release(0x40);
    EXPECT_EQ(ext.lookup(0x40), nullptr);
    EXPECT_EQ(ext.numEntries(), 0u);
}

TEST_F(ExtDirTest, SharersAcrossChunkBoundaries)
{
    ExtEntry &e = ext.alloc(0x80);
    for (NodeId n = 0; n < 40; ++n)
        ext.addSharer(e, n);
    EXPECT_EQ(e.sharerCount, 40u);
    std::set<NodeId> seen;
    ext.forEachSharer(e, [&](NodeId n) { seen.insert(n); });
    EXPECT_EQ(seen.size(), 40u);
    EXPECT_TRUE(e.hasSharer(0));
    EXPECT_TRUE(e.hasSharer(39));
    EXPECT_FALSE(e.hasSharer(40));
}

TEST_F(ExtDirTest, DuplicateSharersIgnored)
{
    ExtEntry &e = ext.alloc(0x80);
    ext.addSharer(e, 5);
    ext.addSharer(e, 5);
    EXPECT_EQ(e.sharerCount, 1u);
}

TEST_F(ExtDirTest, FreeListRecyclesStorage)
{
    // Exercise alloc/release cycles; free-listed entries must be
    // reused without growth (chunksAllocated counts net new takes).
    for (int round = 0; round < 100; ++round) {
        Addr a = 0x1000 + static_cast<Addr>(round % 3) * 16;
        ExtEntry &e = ext.alloc(a);
        for (NodeId n = 0; n < 20; ++n)
            ext.addSharer(e, n);
        ext.release(a);
    }
    EXPECT_EQ(ext.numEntries(), 0u);
}

TEST_F(ExtDirTest, ManyEntriesHashCorrectly)
{
    for (int i = 0; i < 3000; ++i)
        ext.alloc(static_cast<Addr>(i) * blockBytes);
    EXPECT_EQ(ext.numEntries(), 3000u);
    for (int i = 0; i < 3000; ++i) {
        ExtEntry *e = ext.lookup(static_cast<Addr>(i) * blockBytes);
        ASSERT_NE(e, nullptr);
        EXPECT_EQ(e->blockAddr, static_cast<Addr>(i) * blockBytes);
    }
}

// ------------------------------------------------------------------
// Cost model: reproduce Table 2 of the paper by composition.
// ------------------------------------------------------------------

namespace
{

Cycles
composeRead(const CostModel &cm, unsigned pointers_stored,
            bool fresh_alloc)
{
    Cycles t = 0;
    t += cm.cost(Activity::TrapDispatch, false);
    t += cm.cost(Activity::MsgDispatch, false);
    t += cm.cost(Activity::ProtoDispatch, false);
    t += cm.cost(Activity::SaveState, false);
    t += cm.cost(Activity::NonAlewife, false);
    t += cm.cost(Activity::DecodeDir, false);
    t += cm.cost(Activity::HashAdmin, false);
    if (fresh_alloc)
        t += cm.cost(Activity::MemMgmt, false);
    t += pointers_stored * cm.cost(Activity::StorePointer, false);
    t += cm.cost(Activity::TrapReturn, false);
    return t;
}

Cycles
composeWrite(const CostModel &cm, unsigned sharers, unsigned invs)
{
    Cycles t = 0;
    t += cm.cost(Activity::TrapDispatch, true);
    t += cm.cost(Activity::MsgDispatch, true);
    t += cm.cost(Activity::ProtoDispatch, true);
    t += cm.cost(Activity::SaveState, true);
    t += cm.cost(Activity::NonAlewife, true);
    t += cm.cost(Activity::DecodeDir, true);
    t += cm.cost(Activity::HashAdmin, true);
    t += sharers * cm.cost(Activity::FreePointer, true);
    t += invs * cm.cost(Activity::InvXmit, true);
    t += cm.cost(Activity::MemMgmt, true);
    t += cm.cost(Activity::TrapReturn, true);
    return t;
}

} // anonymous namespace

TEST(CostModel, Table2ReadMedianFlexibleC)
{
    CostModel cm(HandlerProfile::FlexibleC);
    // 8 readers/block: the median read-overflow trap stores 6
    // pointers (5 emptied from hardware + the requester) into a
    // freshly allocated extended entry. Paper total: 480 cycles.
    EXPECT_NEAR(static_cast<double>(composeRead(cm, 6, true)), 480, 5);
}

TEST(CostModel, Table2ReadMedianTunedAsm)
{
    CostModel cm(HandlerProfile::TunedAsm);
    // Paper total: 193 cycles.
    EXPECT_NEAR(static_cast<double>(composeRead(cm, 6, true)), 193, 5);
}

TEST(CostModel, Table2WriteMedianFlexibleC)
{
    CostModel cm(HandlerProfile::FlexibleC);
    // 8 readers, 1 writer: 8 pointers freed, 8 invalidations.
    // Paper total: 737 cycles.
    EXPECT_NEAR(static_cast<double>(composeWrite(cm, 8, 8)), 737, 10);
}

TEST(CostModel, Table2WriteMedianTunedAsm)
{
    CostModel cm(HandlerProfile::TunedAsm);
    // Paper total: 384 cycles.
    EXPECT_NEAR(static_cast<double>(composeWrite(cm, 8, 8)), 384, 10);
}

TEST(CostModel, AsmSkipsFlexibilityOverheads)
{
    CostModel cm(HandlerProfile::TunedAsm);
    EXPECT_EQ(cm.cost(Activity::ProtoDispatch, false), 0u);
    EXPECT_EQ(cm.cost(Activity::SaveState, true), 0u);
    EXPECT_EQ(cm.cost(Activity::HashAdmin, false), 0u);
    EXPECT_EQ(cm.cost(Activity::NonAlewife, true), 0u);
}

TEST(CostModel, CPaysRoughlyTwiceAsm)
{
    CostModel c(HandlerProfile::FlexibleC);
    CostModel a(HandlerProfile::TunedAsm);
    double ratio_read =
        static_cast<double>(composeRead(c, 6, true)) /
        static_cast<double>(composeRead(a, 6, true));
    double ratio_write =
        static_cast<double>(composeWrite(c, 8, 8)) /
        static_cast<double>(composeWrite(a, 8, 8));
    EXPECT_GT(ratio_read, 1.7);
    EXPECT_LT(ratio_read, 3.0);
    EXPECT_GT(ratio_write, 1.5);
    EXPECT_LT(ratio_write, 2.5);
}
