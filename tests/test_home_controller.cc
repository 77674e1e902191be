/**
 * @file
 * Unit tests of the home-side controller driven directly through a
 * stub NodeServices: every protocol's hardware transitions, trap
 * decisions, software handler effects, and the window-of-
 * vulnerability machinery, observed message by message.
 */

#include <gtest/gtest.h>

#include <deque>

#include "core/home_controller.hh"

using namespace swex;

namespace
{

/** Captures everything the controller asks the node to do. */
struct StubNode : NodeServices
{
    struct Sent
    {
        Message msg;
        Cycles delay;
    };

    std::vector<Sent> sent;
    std::vector<TrapItem> traps;
    std::vector<std::pair<Cycles, std::function<void()>>> scheduled;
    MemoryModule memImpl;
    RemovalResult localCopy;   ///< what invalidateLocal reports

    void
    sendMsg(const Message &msg, Cycles delay) override
    {
        sent.push_back({msg, delay});
    }

    void raiseTrap(const TrapItem &item) override
    {
        traps.push_back(item);
    }

    RemovalResult
    invalidateLocal(Addr) override
    {
        RemovalResult r = localCopy;
        localCopy = RemovalResult{};
        return r;
    }

    RemovalResult downgradeLocal(Addr) override { return localCopy; }

    MemoryModule &memory() override { return memImpl; }

    void
    schedule(Cycles delay, std::function<void()> fn) override
    {
        scheduled.emplace_back(delay, std::move(fn));
    }

    /** Execute everything the controller scheduled (handler ends). */
    void
    drainScheduled()
    {
        auto items = std::move(scheduled);
        scheduled.clear();
        for (auto &[d, fn] : items)
            fn();
    }

    /** Count sent messages of one type. */
    int
    countSent(MsgType t) const
    {
        int n = 0;
        for (const auto &s : sent)
            if (s.msg.type == t)
                ++n;
        return n;
    }

    const Message *
    lastOf(MsgType t) const
    {
        for (auto it = sent.rbegin(); it != sent.rend(); ++it)
            if (it->msg.type == t)
                return &it->msg;
        return nullptr;
    }
};

struct Harness
{
    explicit Harness(ProtocolConfig p, int nodes = 8,
                     NodeId home_id = 0)
        : home_cfg{p, HandlerProfile::FlexibleC, false},
          hc(home_id, nodes, home_cfg, node, nullptr)
    {
    }

    Message
    req(MsgType t, NodeId src, Addr a = 0x100)
    {
        Message m;
        m.type = t;
        m.src = src;
        m.dst = 0;
        m.addr = a;
        return m;
    }

    /** Run every queued trap (as the processor would). */
    void
    runTraps()
    {
        while (!node.traps.empty()) {
            TrapItem item = node.traps.front();
            node.traps.erase(node.traps.begin());
            hc.runTrap(item);
            node.drainScheduled();
        }
    }

    /**
     * Deliver @p m, which must queue exactly one trap, and run that
     * trap's handler. Clears the sent log first, so afterwards it
     * holds only what the handler sent.
     * @return the handler's cycles.
     */
    Cycles
    trapped(const Message &m)
    {
        node.sent.clear();
        hc.handleMessage(m);
        EXPECT_EQ(node.traps.size(), 1u);
        if (node.traps.empty())
            return 0;
        TrapItem item = node.traps.front();
        node.traps.clear();
        Cycles c = hc.runTrap(item);
        node.drainScheduled();
        return c;
    }

    StubNode node;
    HomeConfig home_cfg;
    HomeController hc;
};

/** One expected home-side message: its type, target and delay. */
struct Want
{
    MsgType type;
    NodeId dst;
    Cycles delay;
};

void
expectSent(const StubNode &node, const std::vector<Want> &want)
{
    ASSERT_EQ(node.sent.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        const StubNode::Sent &s = node.sent[i];
        EXPECT_EQ(s.msg.type, want[i].type) << "message " << i;
        EXPECT_EQ(s.msg.src, 0) << "message " << i;
        EXPECT_EQ(s.msg.dst, want[i].dst) << "message " << i;
        EXPECT_EQ(s.msg.addr, 0x100u) << "message " << i;
        EXPECT_EQ(s.delay, want[i].delay) << "message " << i;
    }
}

} // anonymous namespace

// ------------------------------------------------------------------
// Hardware paths
// ------------------------------------------------------------------

TEST(HomeHw, ReadFillsPointersThenTraps)
{
    Harness h(ProtocolConfig::hw(2));
    h.hc.handleMessage(h.req(MsgType::ReadReq, 1));
    h.hc.handleMessage(h.req(MsgType::ReadReq, 2));
    EXPECT_EQ(h.node.countSent(MsgType::ReadData), 2);
    EXPECT_TRUE(h.node.traps.empty());

    // Third reader overflows: data still sent by hardware, trap
    // queued for the software to record the requester.
    h.hc.handleMessage(h.req(MsgType::ReadReq, 3));
    EXPECT_EQ(h.node.countSent(MsgType::ReadData), 3);
    ASSERT_EQ(h.node.traps.size(), 1u);
    EXPECT_EQ(h.node.traps[0].kind, TrapKind::ReadOverflow);

    h.runTraps();
    const DirEntry *e = h.hc.dir.lookup(0x100);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->overflowed);
    EXPECT_EQ(e->ptrCount, 0);   // emptied into software
    ExtEntry *xe = h.hc.ext.lookup(0x100);
    ASSERT_NE(xe, nullptr);
    EXPECT_EQ(xe->sharerCount, 3u);
}

TEST(HomeHw, LocalBitSparesAPointer)
{
    Harness h(ProtocolConfig::hw(1));
    h.hc.handleMessage(h.req(MsgType::ReadReq, 0));   // home itself
    h.hc.handleMessage(h.req(MsgType::ReadReq, 5));
    EXPECT_TRUE(h.node.traps.empty());   // bit + one pointer suffice
    const DirEntry *e = h.hc.dir.lookup(0x100);
    EXPECT_TRUE(e->localBit);
    EXPECT_TRUE(e->hasPtr(5));
}

TEST(HomeHw, WriteToSharedSendsHwInvsAndCollectsAcks)
{
    Harness h(ProtocolConfig::hw(3));
    h.hc.handleMessage(h.req(MsgType::ReadReq, 1));
    h.hc.handleMessage(h.req(MsgType::ReadReq, 2));
    h.node.sent.clear();

    h.hc.handleMessage(h.req(MsgType::WriteReq, 3));
    EXPECT_EQ(h.node.countSent(MsgType::Inv), 2);
    EXPECT_TRUE(h.node.traps.empty());   // all-hardware
    EXPECT_EQ(h.hc.dir.lookup(0x100)->state, DirState::PendWrite);

    h.hc.handleMessage(h.req(MsgType::InvAck, 1));
    EXPECT_EQ(h.node.countSent(MsgType::WriteData), 0);
    h.hc.handleMessage(h.req(MsgType::InvAck, 2));
    EXPECT_EQ(h.node.countSent(MsgType::WriteData), 1);
    const DirEntry *e = h.hc.dir.lookup(0x100);
    EXPECT_EQ(e->state, DirState::Exclusive);
    EXPECT_EQ(e->ptrs[0], 3);
}

TEST(HomeHw, WriteUpgradeByOnlySharerGrantsImmediately)
{
    Harness h(ProtocolConfig::hw(5));
    h.hc.handleMessage(h.req(MsgType::ReadReq, 4));
    h.node.sent.clear();
    h.hc.handleMessage(h.req(MsgType::WriteReq, 4));
    EXPECT_EQ(h.node.countSent(MsgType::Inv), 0);
    EXPECT_EQ(h.node.countSent(MsgType::WriteData), 1);
    EXPECT_EQ(h.hc.dir.lookup(0x100)->state, DirState::Exclusive);
}

TEST(HomeHw, ReadOfDirtyBlockFetchesFromOwner)
{
    Harness h(ProtocolConfig::hw(5));
    h.hc.handleMessage(h.req(MsgType::WriteReq, 2));
    h.node.sent.clear();

    h.hc.handleMessage(h.req(MsgType::ReadReq, 5));
    ASSERT_EQ(h.node.countSent(MsgType::FetchS), 1);
    const Message *f = h.node.lastOf(MsgType::FetchS);
    EXPECT_EQ(f->dst, 2);
    EXPECT_EQ(h.hc.dir.lookup(0x100)->state, DirState::PendRead);

    // Owner answers with data: both end up sharers.
    Message rep = h.req(MsgType::FetchReply, 2);
    rep.seq = f->seq;
    rep.hasData = true;
    rep.data.write(0x100, 77);
    h.hc.handleMessage(rep);
    EXPECT_EQ(h.node.countSent(MsgType::ReadData), 1);
    const DirEntry *e = h.hc.dir.lookup(0x100);
    EXPECT_EQ(e->state, DirState::Shared);
    EXPECT_TRUE(e->hasPtr(2));
    EXPECT_TRUE(e->hasPtr(5));
    EXPECT_EQ(h.node.memImpl.readWord(0x100), 77u);
}

TEST(HomeHw, StaleFetchReplyIsDiscarded)
{
    Harness h(ProtocolConfig::hw(5));
    h.hc.handleMessage(h.req(MsgType::WriteReq, 2));
    h.hc.handleMessage(h.req(MsgType::ReadReq, 5));
    const Message *f = h.node.lastOf(MsgType::FetchS);
    ASSERT_NE(f, nullptr);

    Message stale = h.req(MsgType::FetchReply, 2);
    stale.seq = static_cast<std::uint8_t>(f->seq + 1);   // wrong tag
    stale.hasData = true;
    h.hc.handleMessage(stale);
    // Still pending: the stale reply must not complete the fetch.
    EXPECT_EQ(h.hc.dir.lookup(0x100)->state, DirState::PendRead);
}

TEST(HomeHw, NackedFetchIsRetried)
{
    Harness h(ProtocolConfig::hw(5));
    h.hc.handleMessage(h.req(MsgType::WriteReq, 2));
    h.hc.handleMessage(h.req(MsgType::ReadReq, 5));
    const Message *f = h.node.lastOf(MsgType::FetchS);

    Message nack = h.req(MsgType::FetchReply, 2);
    nack.seq = f->seq;
    nack.hasData = false;
    h.node.sent.clear();
    h.hc.handleMessage(nack);
    EXPECT_EQ(h.node.countSent(MsgType::FetchS), 1);   // re-fetch
    EXPECT_EQ(h.hc.dir.lookup(0x100)->state, DirState::PendRead);
}

TEST(HomeHw, WritebackCompletesPendingFetch)
{
    Harness h(ProtocolConfig::hw(5));
    h.hc.handleMessage(h.req(MsgType::WriteReq, 2));
    h.hc.handleMessage(h.req(MsgType::ReadReq, 5));
    h.node.sent.clear();

    Message wb = h.req(MsgType::Writeback, 2);
    wb.hasData = true;
    wb.data.write(0x100, 55);
    h.hc.handleMessage(wb);
    EXPECT_EQ(h.node.countSent(MsgType::ReadData), 1);
    const DirEntry *e = h.hc.dir.lookup(0x100);
    EXPECT_EQ(e->state, DirState::Shared);
    // The owner evicted: only the requester holds a copy.
    EXPECT_FALSE(e->hasPtr(2));
    EXPECT_TRUE(e->hasPtr(5));
    EXPECT_EQ(h.node.memImpl.readWord(0x100), 55u);
}

TEST(HomeHw, RequestsDuringTrapAreDeferredAndReplayed)
{
    Harness h(ProtocolConfig::hw(1));
    h.hc.handleMessage(h.req(MsgType::ReadReq, 1));
    h.hc.handleMessage(h.req(MsgType::ReadReq, 2));   // overflow trap
    ASSERT_EQ(h.node.traps.size(), 1u);

    // While the trap is queued, another read arrives: no busy reply,
    // the request parks in the CMMU queue.
    h.node.sent.clear();
    h.hc.handleMessage(h.req(MsgType::ReadReq, 3));
    EXPECT_EQ(h.node.countSent(MsgType::Busy), 0);
    EXPECT_EQ(h.node.countSent(MsgType::ReadData), 0);

    // Handler completes -> the parked read replays (overflowing again
    // is fine: hardware sends the data and queues another trap).
    h.runTraps();
    EXPECT_EQ(h.node.countSent(MsgType::ReadData), 1);
}

TEST(HomeHw, RepliesLeaveAfterFixedLatencies)
{
    // Data waits for the DRAM access (10), control for the hardware's
    // message synthesis (2); hardware sends never charge a handler.
    Harness h(ProtocolConfig::hw(5));
    h.hc.handleMessage(h.req(MsgType::WriteReq, 2));
    expectSent(h.node, {{MsgType::WriteData, 2, 10}});

    h.node.sent.clear();
    h.hc.handleMessage(h.req(MsgType::ReadReq, 2));   // owner again
    h.hc.handleMessage(h.req(MsgType::ReadReq, 5));
    Message nack = h.req(MsgType::FetchReply, 2);
    nack.seq = 1;
    h.hc.handleMessage(nack);
    Message rep = nack;
    rep.hasData = true;
    h.hc.handleMessage(rep);
    expectSent(h.node, {{MsgType::Busy, 2, 2},
                        {MsgType::FetchS, 2, 2},
                        {MsgType::FetchS, 2, 2},
                        {MsgType::ReadData, 5, 10}});
    EXPECT_EQ(h.hc.busySent.value(), 1);

    h.node.sent.clear();
    h.hc.handleMessage(h.req(MsgType::WriteReq, 3));
    expectSent(h.node, {{MsgType::Inv, 2, 2}, {MsgType::Inv, 5, 2}});
    EXPECT_EQ(h.hc.hwInvsSent.value(), 2);
    EXPECT_EQ(h.hc.dir.lookup(0x100)->state, DirState::PendWrite);
    EXPECT_TRUE(h.node.traps.empty());
}

// ------------------------------------------------------------------
// Software handlers
// ------------------------------------------------------------------

TEST(HomeSw, OverflowedWriteInvalidatesUnionOfHwAndSw)
{
    Harness h(ProtocolConfig::hw(2));
    for (NodeId n = 1; n <= 5; ++n)
        h.hc.handleMessage(h.req(MsgType::ReadReq, n));
    h.runTraps();
    ASSERT_TRUE(h.hc.dir.lookup(0x100)->overflowed);
    h.node.sent.clear();

    h.hc.handleMessage(h.req(MsgType::WriteReq, 6));
    ASSERT_EQ(h.node.traps.size(), 1u);
    EXPECT_EQ(h.node.traps[0].kind, TrapKind::WriteOverflow);
    h.runTraps();
    EXPECT_EQ(h.node.countSent(MsgType::Inv), 5);
    EXPECT_EQ(h.hc.dir.lookup(0x100)->ackCount, 5u);
    EXPECT_EQ(h.hc.ext.numEntries(), 0u);   // released

    for (NodeId n = 1; n <= 5; ++n)
        h.hc.handleMessage(h.req(MsgType::InvAck, n));
    EXPECT_EQ(h.node.countSent(MsgType::WriteData), 1);
    EXPECT_EQ(h.hc.dir.lookup(0x100)->state, DirState::Exclusive);
}

TEST(HomeSw, LackProtocolTrapsOnLastAckOnly)
{
    Harness h(ProtocolConfig::h1Lack());
    h.hc.handleMessage(h.req(MsgType::ReadReq, 1));
    h.hc.handleMessage(h.req(MsgType::ReadReq, 2));
    h.runTraps();

    h.hc.handleMessage(h.req(MsgType::WriteReq, 3));
    h.runTraps();   // the write-overflow handler sends the invs
    EXPECT_EQ(h.node.countSent(MsgType::Inv), 2);

    h.node.traps.clear();
    h.hc.handleMessage(h.req(MsgType::InvAck, 1));
    EXPECT_TRUE(h.node.traps.empty());   // hw counts this one
    h.hc.handleMessage(h.req(MsgType::InvAck, 2));
    ASSERT_EQ(h.node.traps.size(), 1u);  // last ack traps
    EXPECT_EQ(h.node.traps[0].kind, TrapKind::LastAck);
    h.runTraps();
    EXPECT_EQ(h.node.countSent(MsgType::WriteData), 1);
}

TEST(HomeSw, AckProtocolTrapsOnEveryAck)
{
    Harness h(ProtocolConfig::h1Ack());
    h.hc.handleMessage(h.req(MsgType::ReadReq, 1));
    h.hc.handleMessage(h.req(MsgType::ReadReq, 2));
    h.runTraps();
    h.hc.handleMessage(h.req(MsgType::WriteReq, 3));
    h.runTraps();
    EXPECT_EQ(h.hc.dir.lookup(0x100)->state, DirState::SwPendWrite);

    h.node.traps.clear();
    h.hc.handleMessage(h.req(MsgType::InvAck, 1));
    ASSERT_EQ(h.node.traps.size(), 1u);
    EXPECT_EQ(h.node.traps[0].kind, TrapKind::EveryAck);
    h.runTraps();
    EXPECT_EQ(h.node.countSent(MsgType::WriteData), 0);

    // A request during the software-pending write gets a software
    // busy reply (the hardware pointer is unused: the ACK pathology).
    h.hc.handleMessage(h.req(MsgType::ReadReq, 5));
    ASSERT_EQ(h.node.traps.size(), 1u);
    EXPECT_EQ(h.node.traps[0].kind, TrapKind::SwBusy);
    h.runTraps();
    EXPECT_EQ(h.node.countSent(MsgType::Busy), 1);

    h.hc.handleMessage(h.req(MsgType::InvAck, 2));
    h.runTraps();
    EXPECT_EQ(h.node.countSent(MsgType::WriteData), 1);
}

TEST(HomeSw, Dir1swBroadcastsOnWriteAfterUntrackedCopies)
{
    Harness h(ProtocolConfig::dir1sw());
    // Reads beyond the single pointer do NOT trap (the B protocols').
    for (NodeId n = 1; n <= 4; ++n)
        h.hc.handleMessage(h.req(MsgType::ReadReq, n));
    EXPECT_TRUE(h.node.traps.empty());
    EXPECT_TRUE(h.hc.dir.lookup(0x100)->broadcastBit);

    h.hc.handleMessage(h.req(MsgType::WriteReq, 5));
    ASSERT_EQ(h.node.traps.size(), 1u);
    EXPECT_EQ(h.node.traps[0].kind, TrapKind::WriteBroadcast);
    h.node.sent.clear();
    h.runTraps();
    // Broadcast: every node except the requester and the home.
    EXPECT_EQ(h.node.countSent(MsgType::Inv), 6);
}

TEST(HomeSw, H0UniprocessorPathUntilRemoteTouch)
{
    Harness h(ProtocolConfig::h0());
    // Local accesses while the remote-touched bit is clear: no traps.
    h.hc.handleMessage(h.req(MsgType::ReadReq, 0));
    h.hc.handleMessage(h.req(MsgType::WriteReq, 0));
    EXPECT_TRUE(h.node.traps.empty());

    // First remote access: trap; the handler sets the bit and flushes
    // the (dirty) local copy into memory before serving.
    h.node.localCopy.wasPresent = true;
    h.node.localCopy.wasDirty = true;
    h.node.localCopy.data.write(0x100, 99);
    h.hc.handleMessage(h.req(MsgType::ReadReq, 3));
    ASSERT_EQ(h.node.traps.size(), 1u);
    EXPECT_EQ(h.node.traps[0].kind, TrapKind::SwRequest);
    h.runTraps();
    EXPECT_TRUE(h.hc.dir.lookup(0x100)->remoteTouched);
    EXPECT_EQ(h.node.memImpl.readWord(0x100), 99u);
    const Message *d = h.node.lastOf(MsgType::ReadData);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->data.read(0x100), 99u);

    // Now even local accesses trap.
    h.node.traps.clear();
    h.hc.handleMessage(h.req(MsgType::ReadReq, 0));
    ASSERT_EQ(h.node.traps.size(), 1u);
    EXPECT_EQ(h.node.traps[0].kind, TrapKind::SwRequest);
}

TEST(HomeSw, HandlerCyclesMatchCostModel)
{
    Harness h(ProtocolConfig::hw(5));
    for (NodeId n = 1; n <= 6; ++n)
        h.hc.handleMessage(h.req(MsgType::ReadReq, n));
    ASSERT_EQ(h.node.traps.size(), 1u);
    TrapItem item = h.node.traps[0];
    h.node.traps.clear();
    Cycles c = h.hc.runTrap(item);
    // Table 2's C read median: 480 cycles (6 pointers stored).
    EXPECT_NEAR(static_cast<double>(c), 480, 5);
}

TEST(HomeSw, FullMapNeverTraps)
{
    Harness h(ProtocolConfig::fullMap());
    for (NodeId n = 0; n < 8; ++n)
        h.hc.handleMessage(h.req(MsgType::ReadReq, n));
    h.hc.handleMessage(h.req(MsgType::WriteReq, 3));
    // Full-map tracks the home with a bit too, so it acks its own
    // loopback invalidation like any sharer: 7 acks expected.
    for (NodeId n = 0; n < 8; ++n)
        if (n != 3)
            h.hc.handleMessage(h.req(MsgType::InvAck, n));
    EXPECT_TRUE(h.node.traps.empty());
    EXPECT_EQ(h.hc.dir.lookup(0x100)->state, DirState::Exclusive);
    EXPECT_EQ(h.node.countSent(MsgType::WriteData), 1);
}

// ------------------------------------------------------------------
// The software-only directory (Dir_n H_0 S_{NB,ACK}), handler by
// handler: the messages sent, their delays, the handler's cycles and
// the entry left behind.
// ------------------------------------------------------------------

namespace
{

// FlexibleC costs (cost_model.cc). A handler for a ReadReq or a
// FetchReply pays 91 cycles on entry (69 of prologue, 22 to decode
// the directory) and 14 to return; one for a WriteReq, a Writeback or
// an InvAck pays 108 (56 + 52) and 9. A send is charged before it
// leaves: a busy reply or a fetch 15, a data reply 30, each
// invalidation 52.
constexpr Cycles rdIn = 91, rdOut = 14, wrIn = 108, wrOut = 9;
constexpr Cycles ctl = 15, data = 30, inv = 52;
// Extended-directory work: 12 per pointer freed (or for the local
// flush), 39 per pointer stored, a hash lookup 80 (read) or 74
// (write), a free-list operation 60 (read) or 28 (write).
constexpr Cycles freePtr = 12, storePtr = 39;
constexpr Cycles rdHash = 80, wrHash = 74, rdMem = 60, wrMem = 28;

/** An H0 home whose block 0x100 node 2 owns, after a remote write. */
struct OwnedH0 : Harness
{
    OwnedH0() : Harness(ProtocolConfig::h0())
    {
        // The first remote access also flushes the home's own copy.
        EXPECT_EQ(trapped(req(MsgType::WriteReq, 2)),
                  wrIn + freePtr + data + wrOut);
        expectSent(node, {{MsgType::WriteData, 2, wrIn + freePtr + data}});
    }

    const DirEntry &entry() const { return *hc.dir.lookup(0x100); }

    Message
    fetchReply(std::uint8_t seq, bool with_data, Word value = 0)
    {
        Message m = req(MsgType::FetchReply, 2);
        m.seq = seq;
        m.hasData = with_data;
        if (with_data)
            m.data.write(0x100, value);
        return m;
    }
};

/** A read and a write from node 6 each get a busy reply. */
void
expectBusiesBoth(Harness &h, DirState state)
{
    EXPECT_EQ(h.trapped(h.req(MsgType::ReadReq, 6)), rdIn + ctl + rdOut);
    expectSent(h.node, {{MsgType::Busy, 6, rdIn + ctl}});
    EXPECT_FALSE(h.node.sent.at(0).msg.isWrite);
    EXPECT_EQ(h.trapped(h.req(MsgType::WriteReq, 6)), wrIn + ctl + wrOut);
    expectSent(h.node, {{MsgType::Busy, 6, wrIn + ctl}});
    EXPECT_TRUE(h.node.sent.at(0).msg.isWrite);
    EXPECT_EQ(h.hc.dir.lookup(0x100)->state, state);
}

} // anonymous namespace

TEST(HomeSw, H0RecallsAnOwnedBlockOrTellsTheOwnerToRetry)
{
    OwnedH0 h;
    EXPECT_EQ(h.entry().state, DirState::Exclusive);
    EXPECT_EQ(h.entry().ptrs[0], 2);

    // The owner asks again (its writeback is in flight): retry.
    EXPECT_EQ(h.trapped(h.req(MsgType::ReadReq, 2)), rdIn + ctl + rdOut);
    expectSent(h.node, {{MsgType::Busy, 2, rdIn + ctl}});
    EXPECT_FALSE(h.node.sent[0].msg.isWrite);
    EXPECT_EQ(h.trapped(h.req(MsgType::WriteReq, 2)), wrIn + ctl + wrOut);
    expectSent(h.node, {{MsgType::Busy, 2, wrIn + ctl}});
    EXPECT_TRUE(h.node.sent[0].msg.isWrite);
    EXPECT_EQ(h.entry().state, DirState::Exclusive);
    EXPECT_EQ(h.hc.busySent.value(), 2);

    // A reader recalls the block for a shared copy.
    EXPECT_EQ(h.trapped(h.req(MsgType::ReadReq, 5)), rdIn + ctl + rdOut);
    expectSent(h.node, {{MsgType::FetchS, 2, rdIn + ctl}});
    EXPECT_EQ(h.node.sent[0].msg.seq, 1);
    EXPECT_EQ(h.entry().state, DirState::PendRead);
    EXPECT_EQ(h.entry().pendingNode, 5);
    EXPECT_FALSE(h.entry().pendingIsWrite);
    EXPECT_TRUE(h.entry().fetchOutstanding);

    // A writer recalls it for ownership.
    OwnedH0 w;
    EXPECT_EQ(w.trapped(w.req(MsgType::WriteReq, 6)), wrIn + ctl + wrOut);
    expectSent(w.node, {{MsgType::FetchI, 2, wrIn + ctl}});
    EXPECT_EQ(w.node.sent[0].msg.seq, 1);
    EXPECT_EQ(w.entry().state, DirState::PendRead);
    EXPECT_EQ(w.entry().pendingNode, 6);
    EXPECT_TRUE(w.entry().pendingIsWrite);
    EXPECT_TRUE(w.entry().fetchOutstanding);
}

TEST(HomeSw, H0DropsAStaleFetchReplyAndRefetchesOnANack)
{
    OwnedH0 h;
    h.trapped(h.req(MsgType::ReadReq, 5));   // FetchS, seq 1

    // A reply tagged for another fetch changes nothing.
    EXPECT_EQ(h.trapped(h.fetchReply(2, true, 9)), rdIn + rdOut);
    expectSent(h.node, {});
    EXPECT_EQ(h.entry().state, DirState::PendRead);
    EXPECT_TRUE(h.entry().fetchOutstanding);
    EXPECT_EQ(h.node.memImpl.readWord(0x100), 0u);

    // The owner NACKs: fetch again, with the same tag.
    EXPECT_EQ(h.trapped(h.fetchReply(1, false)), rdIn + ctl + rdOut);
    expectSent(h.node, {{MsgType::FetchS, 2, rdIn + ctl}});
    EXPECT_EQ(h.node.sent[0].msg.seq, 1);
    EXPECT_EQ(h.entry().state, DirState::PendRead);
    EXPECT_EQ(h.entry().pendingNode, 5);
    EXPECT_TRUE(h.entry().fetchOutstanding);

    // A write recall fetches again for ownership. A FetchReply
    // handler is charged at read costs either way.
    OwnedH0 w;
    w.trapped(w.req(MsgType::WriteReq, 6));
    EXPECT_EQ(w.trapped(w.fetchReply(1, false)), rdIn + ctl + rdOut);
    expectSent(w.node, {{MsgType::FetchI, 2, rdIn + ctl}});
    EXPECT_EQ(w.entry().state, DirState::PendRead);
    EXPECT_TRUE(w.entry().fetchOutstanding);
}

TEST(HomeSw, H0FetchReplyCompletesARecallInTheExtendedDirectory)
{
    OwnedH0 h;
    h.trapped(h.req(MsgType::ReadReq, 5));

    // The owner keeps a shared copy: the handler allocates the
    // block's entry (hash lookup and free list) and stores both.
    Cycles sent = rdIn + rdHash + rdMem + 2 * storePtr + data;
    EXPECT_EQ(h.trapped(h.fetchReply(1, true, 77)), sent + rdOut);
    expectSent(h.node, {{MsgType::ReadData, 5, sent}});
    EXPECT_EQ(h.node.sent[0].msg.data.read(0x100), 77u);
    EXPECT_EQ(h.node.memImpl.readWord(0x100), 77u);
    EXPECT_EQ(h.entry().state, DirState::Shared);
    EXPECT_EQ(h.entry().ptrCount, 0);
    EXPECT_EQ(h.entry().pendingNode, invalidNode);
    EXPECT_FALSE(h.entry().fetchOutstanding);
    const ExtEntry *xe = h.hc.ext.lookup(0x100);
    ASSERT_NE(xe, nullptr);
    EXPECT_EQ(xe->sharerCount, 2u);
    EXPECT_TRUE(xe->hasSharer(2));
    EXPECT_TRUE(xe->hasSharer(5));

    // A write recall's data grants ownership and records nothing in
    // software.
    OwnedH0 w;
    w.trapped(w.req(MsgType::WriteReq, 6));
    EXPECT_EQ(w.trapped(w.fetchReply(1, true, 88)), rdIn + data + rdOut);
    expectSent(w.node, {{MsgType::WriteData, 6, rdIn + data}});
    EXPECT_EQ(w.node.sent[0].msg.data.read(0x100), 88u);
    EXPECT_EQ(w.entry().state, DirState::Exclusive);
    EXPECT_EQ(w.entry().ptrCount, 1);
    EXPECT_EQ(w.entry().ptrs[0], 6);
    EXPECT_EQ(w.hc.ext.lookup(0x100), nullptr);
}

TEST(HomeSw, H0WritebackCompletesARecallAndAStaleOneIsAccepted)
{
    OwnedH0 h;
    h.trapped(h.req(MsgType::ReadReq, 5));

    // The owner evicted the block while the fetch was in flight: its
    // writeback completes the recall, and only the reader is
    // recorded.
    Message wb = h.req(MsgType::Writeback, 2);
    wb.hasData = true;
    wb.data.write(0x100, 55);
    Cycles sent = wrIn + wrHash + wrMem + storePtr + data;
    EXPECT_EQ(h.trapped(wb), sent + wrOut);
    expectSent(h.node, {{MsgType::ReadData, 5, sent}});
    EXPECT_EQ(h.node.sent[0].msg.data.read(0x100), 55u);
    EXPECT_EQ(h.node.memImpl.readWord(0x100), 55u);
    EXPECT_EQ(h.entry().state, DirState::Shared);
    const ExtEntry *xe = h.hc.ext.lookup(0x100);
    ASSERT_NE(xe, nullptr);
    EXPECT_EQ(xe->sharerCount, 1u);
    EXPECT_TRUE(xe->hasSharer(5));
    EXPECT_TRUE(h.entry().fetchOutstanding);

    // The owner's NACK of the superseded fetch lands afterwards.
    EXPECT_EQ(h.trapped(h.fetchReply(1, false)), rdIn + rdOut);
    expectSent(h.node, {});
    EXPECT_FALSE(h.entry().fetchOutstanding);
    EXPECT_EQ(h.entry().state, DirState::Shared);

    // A stale writeback (the home's own, from before the block left
    // uniprocessor mode) only updates memory.
    Message stale = h.req(MsgType::Writeback, 0);
    stale.hasData = true;
    stale.data.write(0x100, 66);
    EXPECT_EQ(h.trapped(stale), wrIn + wrOut);
    expectSent(h.node, {});
    EXPECT_EQ(h.node.memImpl.readWord(0x100), 66u);
    EXPECT_EQ(h.entry().state, DirState::Shared);
    EXPECT_EQ(h.hc.ext.lookup(0x100)->sharerCount, 1u);

    // A writeback completes a write recall with the grant.
    OwnedH0 w;
    w.trapped(w.req(MsgType::WriteReq, 6));
    Message wwb = w.req(MsgType::Writeback, 2);
    wwb.hasData = true;
    EXPECT_EQ(w.trapped(wwb), wrIn + data + wrOut);
    expectSent(w.node, {{MsgType::WriteData, 6, wrIn + data}});
    EXPECT_EQ(w.entry().state, DirState::Exclusive);
    EXPECT_EQ(w.entry().ptrs[0], 6);
}

TEST(HomeSw, H0WriteToSharedInvalidatesAndCountsAcksInSoftware)
{
    Harness h(ProtocolConfig::h0());
    for (NodeId n : {1, 2, 3, 0})
        h.trapped(h.req(MsgType::ReadReq, n));
    ASSERT_EQ(h.hc.ext.lookup(0x100)->sharerCount, 4u);

    // The writer looks the entry up and frees its four pointers,
    // invalidates the three remote readers, flushes the home's own
    // copy and releases the entry.
    Cycles looked = wrIn + wrHash + 4 * freePtr;
    EXPECT_EQ(h.trapped(h.req(MsgType::WriteReq, 4)),
              looked + 3 * inv + freePtr + wrMem + wrOut);
    expectSent(h.node, {{MsgType::Inv, 1, looked + inv},
                        {MsgType::Inv, 2, looked + 2 * inv},
                        {MsgType::Inv, 3, looked + 3 * inv}});
    const DirEntry &e = *h.hc.dir.lookup(0x100);
    EXPECT_EQ(e.state, DirState::SwPendWrite);
    EXPECT_EQ(e.ackCount, 3u);
    EXPECT_EQ(e.pendingNode, 4);
    EXPECT_TRUE(e.pendingIsWrite);
    EXPECT_EQ(h.hc.ext.lookup(0x100), nullptr);
    EXPECT_EQ(h.hc.swInvsSent.value(), 3);

    // Every ack traps; the last one grants.
    for (NodeId n : {1, 2}) {
        EXPECT_EQ(h.trapped(h.req(MsgType::InvAck, n)), wrIn + wrOut);
        expectSent(h.node, {});
    }
    EXPECT_EQ(h.trapped(h.req(MsgType::InvAck, 3)), wrIn + data + wrOut);
    expectSent(h.node, {{MsgType::WriteData, 4, wrIn + data}});
    EXPECT_EQ(e.state, DirState::Exclusive);
    EXPECT_EQ(e.ptrs[0], 4);

    // A writer that is the only reader is granted at once.
    Harness g(ProtocolConfig::h0());
    g.trapped(g.req(MsgType::ReadReq, 4));
    looked = wrIn + wrHash + freePtr;
    EXPECT_EQ(g.trapped(g.req(MsgType::WriteReq, 4)),
              looked + wrMem + data + wrOut);
    expectSent(g.node, {{MsgType::WriteData, 4, looked + wrMem + data}});
    EXPECT_EQ(g.hc.dir.lookup(0x100)->state, DirState::Exclusive);
    EXPECT_EQ(g.hc.ext.lookup(0x100), nullptr);
}

TEST(HomeSw, H0BusiesRequestsInEveryPendingState)
{
    // A recall in flight.
    OwnedH0 r;
    r.trapped(r.req(MsgType::ReadReq, 5));
    expectBusiesBoth(r, DirState::PendRead);

    // Acks counted in software.
    Harness s(ProtocolConfig::h0());
    s.trapped(s.req(MsgType::ReadReq, 1));
    s.trapped(s.req(MsgType::WriteReq, 4));
    expectBusiesBoth(s, DirState::SwPendWrite);

    // H0's own handlers never leave an entry in PendWrite (they count
    // acks in software), but a request that finds one is busied too.
    Harness p(ProtocolConfig::h0());
    p.trapped(p.req(MsgType::ReadReq, 1));
    DirEntry &e = p.hc.dir.entry(0x100);
    e.state = DirState::PendWrite;
    e.pendingNode = 4;
    e.ackCount = 1;
    expectBusiesBoth(p, DirState::PendWrite);
}
