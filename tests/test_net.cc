/**
 * @file
 * Unit tests for the mesh network: geometry, latency composition,
 * per-pair FIFO ordering, serialization contention, and loopback.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "base/binary_io.hh"
#include "base/logging.hh"
#include "net/network.hh"
#include "sim/event_queue.hh"

using namespace swex;

namespace
{

struct Sink : MsgReceiver
{
    EventQueue &eq;
    std::vector<std::pair<Tick, Message>> got;

    explicit Sink(EventQueue &q) : eq(q) {}

    void
    receiveMessage(const Message &msg) override
    {
        got.emplace_back(eq.curTick(), msg);
    }
};

struct NetFixture : ::testing::Test
{
    EventQueue eq;
    stats::Group root;
    NetworkConfig cfg;
    std::unique_ptr<MeshNetwork> net;
    std::vector<std::unique_ptr<Sink>> sinks;

    void
    build(int n)
    {
        net = std::make_unique<MeshNetwork>(eq, n, cfg, &root);
        for (int i = 0; i < n; ++i) {
            sinks.push_back(std::make_unique<Sink>(eq));
            net->setReceiver(i, sinks.back().get());
        }
    }

    Message
    msg(NodeId src, NodeId dst, bool data = false)
    {
        Message m;
        m.type = data ? MsgType::ReadData : MsgType::ReadReq;
        m.src = src;
        m.dst = dst;
        m.addr = 0x100;
        m.hasData = data;
        return m;
    }
};

} // anonymous namespace

TEST_F(NetFixture, GridShapeIsNearSquare)
{
    build(16);
    EXPECT_EQ(net->width() * net->height(), 16);
    EXPECT_EQ(net->width(), 4);
    EXPECT_EQ(net->height(), 4);
}

TEST_F(NetFixture, GridShapeNonSquareCounts)
{
    build(8);
    EXPECT_EQ(net->width() * net->height(), 8);
    EXPECT_LE(std::max(net->width(), net->height()),
              2 * std::min(net->width(), net->height()));
}

TEST_F(NetFixture, HopCountIsManhattan)
{
    build(16);   // 4x4
    EXPECT_EQ(net->hopCount(0, 0), 0u);
    EXPECT_EQ(net->hopCount(0, 3), 3u);
    EXPECT_EQ(net->hopCount(0, 15), 6u);
    EXPECT_EQ(net->hopCount(5, 6), 1u);
    EXPECT_EQ(net->hopCount(5, 9), 1u);
}

TEST_F(NetFixture, DeliveryLatencyComposition)
{
    build(16);
    // 3 header flits serialize, then routerEntry + hops * hopLatency.
    net->send(msg(0, 1));
    eq.run();
    ASSERT_EQ(sinks[1]->got.size(), 1u);
    Tick expect = 3 + routerEntry + hopLatency * 1;
    EXPECT_EQ(sinks[1]->got[0].first, expect);
}

TEST_F(NetFixture, DataMessagesSerializeLonger)
{
    build(16);
    net->send(msg(0, 1, true));   // 3 + 8 flits
    eq.run();
    ASSERT_EQ(sinks[1]->got.size(), 1u);
    Tick expect = 11 + routerEntry + hopLatency * 1;
    EXPECT_EQ(sinks[1]->got[0].first, expect);
}

TEST_F(NetFixture, TransmitPortSerializesBackToBack)
{
    build(16);
    net->send(msg(0, 1));
    net->send(msg(0, 1));
    eq.run();
    ASSERT_EQ(sinks[1]->got.size(), 2u);
    // Second message waits 3 flits behind the first.
    EXPECT_EQ(sinks[1]->got[1].first - sinks[1]->got[0].first, 3u);
}

TEST_F(NetFixture, SamePairFifoOrdering)
{
    build(16);
    for (int i = 0; i < 5; ++i) {
        Message m = msg(0, 5);
        m.addr = static_cast<Addr>(i);
        net->send(m);
    }
    eq.run();
    ASSERT_EQ(sinks[5]->got.size(), 5u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(sinks[5]->got[static_cast<size_t>(i)].second.addr,
                  static_cast<Addr>(i));
}

TEST_F(NetFixture, LoopbackBypassesMesh)
{
    build(4);
    net->send(msg(2, 2));
    eq.run();
    ASSERT_EQ(sinks[2]->got.size(), 1u);
    EXPECT_EQ(sinks[2]->got[0].first, loopback);
}

TEST_F(NetFixture, JitterDelaysDeliveryWithinBound)
{
    cfg.jitterMax = 20;
    cfg.jitterSeed = 99;
    build(16);
    const Tick quiet = 3 + routerEntry + hopLatency * 1;
    bool any_delayed = false;
    Tick start = eq.curTick();
    for (int i = 0; i < 32; ++i) {
        net->send(msg(0, 1));
        eq.run();
        Tick latency = sinks[1]->got.back().first - start;
        EXPECT_GE(latency, quiet);
        EXPECT_LE(latency, quiet + cfg.jitterMax);
        if (latency > quiet)
            any_delayed = true;
        start = eq.curTick();
    }
    EXPECT_TRUE(any_delayed);
}

TEST_F(NetFixture, JitterIsSeedDeterministic)
{
    auto latencies = [this](std::uint64_t seed) {
        sinks.clear();
        cfg.jitterMax = 20;
        cfg.jitterSeed = seed;
        build(16);
        std::vector<Tick> out;
        Tick start = eq.curTick();
        for (int i = 0; i < 16; ++i) {
            net->send(msg(0, 1));
            eq.run();
            out.push_back(sinks[1]->got.back().first - start);
            start = eq.curTick();
        }
        return out;
    };
    auto a = latencies(7);
    auto b = latencies(7);
    auto c = latencies(8);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST_F(NetFixture, TraceRecordsLastDeliveries)
{
    cfg.traceDepth = 4;
    build(16);
    for (int i = 0; i < 6; ++i) {
        Message m = msg(0, 1);
        m.addr = static_cast<Addr>(0x100 + 0x10 * i);
        net->send(m);
    }
    eq.run();
    std::ostringstream os;
    net->dumpTrace(os);
    // Ring of 4: the two oldest deliveries fell off.
    EXPECT_EQ(os.str().find("0x100"), std::string::npos);
    EXPECT_EQ(os.str().find("0x110"), std::string::npos);
    EXPECT_NE(os.str().find("0x120"), std::string::npos);
    EXPECT_NE(os.str().find("0x150"), std::string::npos);
}

TEST_F(NetFixture, TraceDisabledByDefault)
{
    build(4);
    net->send(msg(0, 1));
    eq.run();
    std::ostringstream os;
    net->dumpTrace(os);
    EXPECT_NE(os.str().find("disabled"), std::string::npos);
}

TEST_F(NetFixture, StatsCountMessagesAndFlits)
{
    build(4);
    net->send(msg(0, 1));
    net->send(msg(1, 0, true));
    eq.run();
    EXPECT_DOUBLE_EQ(net->msgCount.value(), 2.0);
    EXPECT_DOUBLE_EQ(net->flitCount.value(), 3.0 + 11.0);
}

TEST(MessageMeta, FlitsAndNames)
{
    Message m;
    m.type = MsgType::Inv;
    EXPECT_EQ(m.flits(), 3u);
    m.hasData = true;
    EXPECT_EQ(m.flits(), 11u);
    EXPECT_STREQ(msgTypeName(MsgType::WriteData), "WriteData");
    EXPECT_STREQ(msgTypeName(MsgType::FetchReply), "FetchReply");
}

// ------------------------------------------------------------------
// Fault injection and the recoverable delivery layer.
// ------------------------------------------------------------------

TEST(FaultInjector, StreamIsSeedDeterministic)
{
    FaultConfig fc;
    fc.dropPerMille = 150;
    fc.dupPerMille = 150;
    fc.blackoutPerMille = 150;
    fc.seed = 42;

    auto stream = [](const FaultConfig &cfg) {
        FaultInjector inj(cfg);
        std::vector<std::tuple<bool, bool, Cycles>> out;
        for (int i = 0; i < 256; ++i) {
            FaultRoll r = inj.roll();
            out.emplace_back(r.drop, r.duplicate, r.extraDelay);
        }
        return out;
    };

    auto a = stream(fc);
    auto b = stream(fc);
    FaultConfig other = fc;
    other.seed = 43;
    auto c = stream(other);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);

    // With 15% rates over 256 rolls, the stream must actually
    // exercise every fault kind (a degenerate all-false stream would
    // make the recovery tests below vacuous).
    bool any_drop = false, any_dup = false, any_blk = false;
    for (const auto &[drop, dup, delay] : a) {
        any_drop |= drop;
        any_dup |= dup;
        any_blk |= delay > 0;
    }
    EXPECT_TRUE(any_drop);
    EXPECT_TRUE(any_dup);
    EXPECT_TRUE(any_blk);
}

TEST(FaultInjector, BlackoutDelayIsBounded)
{
    FaultConfig fc;
    fc.blackoutPerMille = 1000;
    fc.blackoutMax = 37;
    fc.seed = 9;
    FaultInjector inj(fc);
    for (int i = 0; i < 512; ++i)
        EXPECT_LE(inj.roll().extraDelay, fc.blackoutMax);
}

TEST_F(NetFixture, FaultsOffBuildsNoDeliveryLayer)
{
    build(4);
    EXPECT_EQ(net->delivery(), nullptr);
}

TEST_F(NetFixture, DropRecoveryDeliversExactlyOnceInOrder)
{
    cfg.faults.dropPerMille = 300;
    cfg.faults.seed = 7;
    build(16);
    ASSERT_NE(net->delivery(), nullptr);

    for (int i = 0; i < 40; ++i) {
        Message m = msg(0, 5);
        m.addr = static_cast<Addr>(i);
        net->send(m);
    }
    eq.run();

    ASSERT_EQ(sinks[5]->got.size(), 40u);
    for (int i = 0; i < 40; ++i)
        EXPECT_EQ(sinks[5]->got[static_cast<size_t>(i)].second.addr,
                  static_cast<Addr>(i));

    // The stream at this seed must have lost transmissions and
    // recovered them by retransmission.
    EXPECT_GT(net->delivery()->dropsInjected.value(), 0.0);
    EXPECT_GT(net->delivery()->retransmits.value(), 0.0);
    EXPECT_DOUBLE_EQ(net->delivery()->delivered.value(), 40.0);

    int violations = 0;
    net->checkDeliveryQuiescent(
        [&](NodeId, NodeId, const std::string &) { ++violations; });
    EXPECT_EQ(violations, 0);
}

TEST_F(NetFixture, AlwaysDuplicateStillDeliversExactlyOnce)
{
    cfg.faults.dupPerMille = 1000;
    cfg.faults.seed = 3;
    build(16);

    for (int i = 0; i < 10; ++i) {
        Message m = msg(0, 1);
        m.addr = static_cast<Addr>(i);
        net->send(m);
    }
    eq.run();

    // Every transmission put two copies on the wire; exactly one per
    // message reached the receiver, the other was suppressed.
    ASSERT_EQ(sinks[1]->got.size(), 10u);
    EXPECT_DOUBLE_EQ(net->delivery()->dupsInjected.value(), 10.0);
    EXPECT_DOUBLE_EQ(net->delivery()->dupSuppressed.value(), 10.0);

    int violations = 0;
    net->checkDeliveryQuiescent(
        [&](NodeId, NodeId, const std::string &) { ++violations; });
    EXPECT_EQ(violations, 0);
}

TEST_F(NetFixture, BlackoutsReorderWireButDeliveryStaysInOrder)
{
    cfg.faults.blackoutPerMille = 500;
    cfg.faults.blackoutMax = 200;
    cfg.faults.seed = 11;
    build(16);

    for (int i = 0; i < 32; ++i) {
        Message m = msg(0, 9);
        m.addr = static_cast<Addr>(i);
        net->send(m);
    }
    eq.run();

    ASSERT_EQ(sinks[9]->got.size(), 32u);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(sinks[9]->got[static_cast<size_t>(i)].second.addr,
                  static_cast<Addr>(i));

    // A 200-cycle blackout against back-to-back 3-flit serialization
    // must have overtaken something: the reorder buffer held arrivals
    // behind a sequence gap and released them in order.
    EXPECT_GT(net->delivery()->reorderHeld.value(), 0.0);

    int violations = 0;
    net->checkDeliveryQuiescent(
        [&](NodeId, NodeId, const std::string &) { ++violations; });
    EXPECT_EQ(violations, 0);
}

TEST_F(NetFixture, BlackoutExactlySpanningRetransmitTimeoutIsSafe)
{
    // The nastiest blackout length is the retransmission interval
    // itself: the delayed original and the timer-driven retransmit
    // race to the receiver a few cycles apart. Exactly-once delivery
    // must hold on both outcomes of that race — the loser is
    // suppressed as a duplicate, never delivered twice.
    cfg.faults.blackoutPerMille = 1000;
    cfg.faults.blackoutMax = retransmitTimeout;
    cfg.faults.seed = 5;
    build(16);
    ASSERT_NE(net->delivery(), nullptr);

    for (int i = 0; i < 32; ++i) {
        Message m = msg(0, 5);
        m.addr = static_cast<Addr>(i);
        net->send(m);
    }
    eq.run();

    ASSERT_EQ(sinks[5]->got.size(), 32u);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(sinks[5]->got[static_cast<size_t>(i)].second.addr,
                  static_cast<Addr>(i));

    // The seed must actually produce the race: blackouts that pushed
    // an arrival past the timer (so the sender retransmitted) and a
    // late copy that then had to be suppressed.
    EXPECT_GT(net->delivery()->retransmits.value(), 0.0);
    EXPECT_GT(net->delivery()->dupSuppressed.value(), 0.0);
    EXPECT_DOUBLE_EQ(net->delivery()->delivered.value(), 32.0);

    int violations = 0;
    net->checkDeliveryQuiescent(
        [&](NodeId, NodeId, const std::string &) { ++violations; });
    EXPECT_EQ(violations, 0);
}

TEST_F(NetFixture, BlackoutJustExceedingRetransmitTimeoutIsSafe)
{
    // Just past the boundary: every long blackout now guarantees the
    // timer fires first, so the delayed original always arrives as
    // the duplicate. The channel must absorb a retransmit storm
    // without double delivery or reordering.
    cfg.faults.blackoutPerMille = 1000;
    cfg.faults.blackoutMax = retransmitTimeout + 64;
    cfg.faults.seed = 6;
    build(16);

    for (int i = 0; i < 32; ++i) {
        Message m = msg(0, 9);
        m.addr = static_cast<Addr>(i);
        net->send(m);
    }
    eq.run();

    ASSERT_EQ(sinks[9]->got.size(), 32u);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(sinks[9]->got[static_cast<size_t>(i)].second.addr,
                  static_cast<Addr>(i));

    EXPECT_GT(net->delivery()->retransmits.value(), 0.0);
    EXPECT_GT(net->delivery()->dupSuppressed.value(), 0.0);
    EXPECT_DOUBLE_EQ(net->delivery()->delivered.value(), 32.0);

    int violations = 0;
    net->checkDeliveryQuiescent(
        [&](NodeId, NodeId, const std::string &) { ++violations; });
    EXPECT_EQ(violations, 0);
}

TEST_F(NetFixture, FaultScheduleReplaysBySeed)
{
    auto deliveries = [this](std::uint64_t seed) {
        sinks.clear();
        cfg.faults.dropPerMille = 250;
        cfg.faults.dupPerMille = 100;
        cfg.faults.blackoutPerMille = 100;
        cfg.faults.seed = seed;
        build(16);
        Tick base = eq.curTick();
        for (int i = 0; i < 24; ++i) {
            Message m = msg(0, 5);
            m.addr = static_cast<Addr>(i);
            net->send(m);
        }
        eq.run();
        std::vector<Tick> out;
        for (const auto &[when, m] : sinks[5]->got)
            out.push_back(when - base);
        return out;
    };
    auto a = deliveries(17);
    auto b = deliveries(17);
    auto c = deliveries(18);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST_F(NetFixture, TotalLossReportsDeliveryViolations)
{
    // Drop every transmission: nothing can ever arrive or be acked.
    // A bounded run must leave the channel visibly broken -- unacked
    // messages, diverged sequence counters, and a retransmission
    // count past the sanity bound.
    cfg.faults.dropPerMille = 1000;
    cfg.faults.seed = 1;
    build(16);

    net->send(msg(0, 1));
    eq.run(retransmitTimeout * (retransmitBound + 8));

    ASSERT_EQ(sinks[1]->got.size(), 0u);
    std::vector<std::string> what;
    net->checkDeliveryQuiescent(
        [&](NodeId src, NodeId dst, const std::string &w) {
            EXPECT_EQ(src, 0);
            EXPECT_EQ(dst, 1);
            what.push_back(w);
        });
    ASSERT_FALSE(what.empty());

    bool unacked = false, bound = false;
    for (const std::string &w : what) {
        if (w.find("unacknowledged") != std::string::npos ||
            w.find("unacked") != std::string::npos)
            unacked = true;
        if (w.find("transmission") != std::string::npos ||
            w.find("attempts") != std::string::npos)
            bound = true;
    }
    EXPECT_TRUE(unacked);
    EXPECT_TRUE(bound);
    EXPECT_GT(net->delivery()->maxAttempts(), retransmitBound);
}

TEST_F(NetFixture, FaultyAllToAllBurstIsPinned)
{
    // Every node sends to every other node in six rounds, each round
    // injected from inside the simulation so sends, arrivals, acks
    // and retransmissions interleave, under jitter and all three
    // fault kinds. One digest pins every release to the receivers,
    // as (tick, src, dst, dseq) in release order, and the delivery
    // counters: a change to the delivery layer that moves one fault
    // roll, jitter draw or event's tie-breaking sequence moves it.
    cfg.jitterMax = 13;
    cfg.jitterSeed = 21;
    cfg.faults.dropPerMille = 150;
    cfg.faults.dupPerMille = 100;
    cfg.faults.blackoutPerMille = 50;
    cfg.faults.blackoutMax = 300;
    cfg.faults.seed = 29;
    constexpr int nodes = 8;
    constexpr int rounds = 6;
    build(nodes);
    Sink all(eq);
    for (int i = 0; i < nodes; ++i)
        net->setReceiver(i, &all);

    for (int r = 0; r < rounds; ++r) {
        eq.schedule(static_cast<Tick>(r) * 40, [this, r] {
            for (int s = 0; s < nodes; ++s) {
                for (int d = 0; d < nodes; ++d) {
                    if (s == d)
                        continue;
                    Message m = msg(s, d, (r + s + d) % 2 == 0);
                    m.addr = static_cast<Addr>(r) * blockBytes;
                    net->send(m);
                }
            }
        });
    }
    eq.run();

    // Exactly once and in order on every channel.
    ASSERT_EQ(all.got.size(),
              static_cast<std::size_t>(rounds * nodes * (nodes - 1)));
    std::vector<Addr> next(nodes * nodes, 0);
    std::uint64_t h = bin::fnvOffset;
    for (const auto &[when, m] : all.got) {
        Addr &want = next[static_cast<std::size_t>(m.src * nodes + m.dst)];
        EXPECT_EQ(m.addr, want);
        want += blockBytes;
        h = bin::fnv1aU64(h, when);
        h = bin::fnv1aU64(h, static_cast<std::uint64_t>(m.src));
        h = bin::fnv1aU64(h, static_cast<std::uint64_t>(m.dst));
        h = bin::fnv1aU64(h, m.dseq);
    }
    const DeliveryLayer &dl = *net->delivery();
    for (const stats::Scalar *s :
         {&dl.sent, &dl.delivered, &dl.retransmits, &dl.dupSuppressed,
          &dl.reorderHeld, &dl.acksSent, &dl.acksDropped})
        h = bin::fnv1aU64(h, static_cast<std::uint64_t>(s->value()));

    // The burst reaches every recovery path the digest is meant to
    // cover.
    EXPECT_GT(dl.retransmits.value(), 0.0);
    EXPECT_GT(dl.dupSuppressed.value(), 0.0);
    EXPECT_GT(dl.reorderHeld.value(), 0.0);
    EXPECT_GT(dl.acksDropped.value(), 0.0);
    int violations = 0;
    net->checkDeliveryQuiescent(
        [&](NodeId, NodeId, const std::string &) { ++violations; });
    EXPECT_EQ(violations, 0);

    EXPECT_EQ(strfmt("%016llx", static_cast<unsigned long long>(h)),
              "e6465763f072e395");
}

TEST_F(NetFixture, QuiescenceViolationTextsArePinned)
{
    // The first fault seed whose stream drops the first transmission
    // and passes the second: message 1 arrives behind the gap message
    // 0 left, and the run is stopped before any retransmission.
    cfg.faults.dropPerMille = 500;
    for (std::uint64_t seed = 1;; ++seed) {
        cfg.faults.seed = seed;
        FaultInjector inj(cfg.faults);
        if (inj.roll().drop && !inj.roll().drop)
            break;
    }
    build(4);
    net->send(msg(0, 1));
    net->send(msg(0, 1));
    eq.run(retransmitTimeout / 2);

    std::vector<std::string> what;
    net->checkDeliveryQuiescent(
        [&](NodeId src, NodeId dst, const std::string &w) {
            EXPECT_EQ(src, 0);
            EXPECT_EQ(dst, 1);
            what.push_back(w);
        });
    EXPECT_EQ(what,
              (std::vector<std::string>{
                  "2 messages unacknowledged at quiescence "
                  "(first dseq 0)",
                  "1 arrivals held behind a sequence gap at quiescence "
                  "(receiver expects dseq 0)",
                  "sequence gap at quiescence: sender assigned 2, "
                  "receiver delivered 0"}));

    // Total loss adds the retransmission bound's text.
    sinks.clear();
    cfg.faults.dropPerMille = 1000;
    build(4);
    net->send(msg(0, 1));
    eq.run(eq.curTick() + retransmitTimeout * (retransmitBound + 8));
    what.clear();
    net->checkDeliveryQuiescent(
        [&](NodeId, NodeId, const std::string &w) { what.push_back(w); });
    EXPECT_EQ(what,
              (std::vector<std::string>{
                  "1 messages unacknowledged at quiescence "
                  "(first dseq 0)",
                  "sequence gap at quiescence: sender assigned 1, "
                  "receiver delivered 0",
                  "a message needed 73 transmissions; the retransmit "
                  "bound is 64"}));
}
