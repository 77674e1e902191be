/**
 * @file
 * Tests of the coherence invariant auditor, the protocol-bug mutation
 * smoke suite that validates it, the message-pool lifetime hardening,
 * and the determinism of the seeded network jitter stressor.
 *
 * The mutation tests prove the auditor earns its keep: each deliberate
 * protocol bug (compiled into every build) is injected, the protocol
 * is driven over it, and the auditor must name a violated invariant. A clean run of the same machinery must stay silent.
 */

#include <gtest/gtest.h>

#include <utility>

#include "apps/registry.hh"
#include "audit/auditor.hh"
#include "core/home_controller.hh"
#include "core/spectrum.hh"
#include "exp/runner.hh"
#include "machine/mem_api.hh"
#include "net/message_pool.hh"
#include "sim/event_queue.hh"

using namespace swex;

namespace
{

/** Minimal stand-in node, as in test_home_controller.cc: lets a test
 *  drive the controller message by message without a machine. */
struct StubNode : NodeServices
{
    std::vector<Message> sent;
    std::vector<TrapItem> traps;
    std::vector<std::pair<Cycles, std::function<void()>>> scheduled;
    MemoryModule memImpl;

    void sendMsg(const Message &msg, Cycles) override
    {
        sent.push_back(msg);
    }

    void raiseTrap(const TrapItem &item) override
    {
        traps.push_back(item);
    }

    RemovalResult invalidateLocal(Addr) override { return {}; }
    RemovalResult downgradeLocal(Addr) override { return {}; }
    MemoryModule &memory() override { return memImpl; }

    void
    schedule(Cycles delay, std::function<void()> fn) override
    {
        scheduled.emplace_back(delay, std::move(fn));
    }
};

struct Harness
{
    explicit Harness(ProtocolConfig p,
                     ProtocolMutation m = ProtocolMutation::None,
                     int nodes = 8)
        : home_cfg{p, HandlerProfile::FlexibleC, false, m},
          hc(0, nodes, home_cfg, node, nullptr),
          auditor(CoherenceAuditor::Mode::Collect)
    {
        hc.setAuditHook(&auditor);
        auditor.addNode({0, &hc, nullptr});
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

    void
    runTraps()
    {
        while (!node.traps.empty()) {
            TrapItem item = node.traps.front();
            node.traps.erase(node.traps.begin());
            hc.runTrap(item);
            auto items = std::move(node.scheduled);
            node.scheduled.clear();
            for (auto &[d, fn] : items)
                fn();
        }
    }

    StubNode node;
    HomeConfig home_cfg;
    HomeController hc;
    CoherenceAuditor auditor;
};

bool
anyViolationContains(const CoherenceAuditor &a, const std::string &frag)
{
    for (const AuditViolation &v : a.violations())
        if (v.what.find(frag) != std::string::npos)
            return true;
    return false;
}

} // anonymous namespace

// ------------------------------------------------------------------
// Mutation smoke tests: each injected protocol bug must be caught.
// ------------------------------------------------------------------

TEST(AuditMutation, AckOvercountCaught)
{
    // Two sharers, then a write: the hardware sends two invalidations
    // but (mutated) arms the counter for three. The auditor, which
    // counted the invalidations actually leaving the home, must flag
    // the mismatch at the very transition that created it.
    Harness h(ProtocolConfig::hw(3), ProtocolMutation::AckOvercount);
    h.hc.handleMessage(h.req(MsgType::ReadReq, 1));
    h.hc.handleMessage(h.req(MsgType::ReadReq, 2));
    EXPECT_EQ(h.auditor.violationCount(), 0u);

    h.hc.handleMessage(h.req(MsgType::WriteReq, 3));
    EXPECT_GT(h.auditor.violationCount(), 0u);
    EXPECT_TRUE(anyViolationContains(
        h.auditor, "invalidations actually outstanding"));
}

TEST(AuditMutation, SkipLastAckTrapCaught)
{
    // LACK protocol write over two software-tracked sharers: when the
    // final acknowledgment arrives the mutated hardware fails to raise
    // the LastAck trap, so the directory sits in PendWrite with zero
    // acks to wait for and nothing queued to finish the transaction.
    Harness h(ProtocolConfig::h1Lack(),
              ProtocolMutation::SkipLastAckTrap);
    h.hc.handleMessage(h.req(MsgType::ReadReq, 1));
    h.hc.handleMessage(h.req(MsgType::ReadReq, 2));
    h.runTraps();
    h.hc.handleMessage(h.req(MsgType::WriteReq, 3));
    h.runTraps();   // the write-overflow handler sends the invs

    h.hc.handleMessage(h.req(MsgType::InvAck, 1));
    EXPECT_EQ(h.auditor.violationCount(), 0u);
    h.hc.handleMessage(h.req(MsgType::InvAck, 2));
    EXPECT_GT(h.auditor.violationCount(), 0u);
    EXPECT_TRUE(anyViolationContains(h.auditor, "stalled forever"));
}

TEST(AuditMutation, DropPointerCaughtAtQuiescence)
{
    // Remote readers are granted data but never recorded. Transition
    // checks cannot see the lie (the entry looks like a legal Shared
    // entry); the quiescent cross-check of every cache against the
    // directory must find readable copies the directory cannot name.
    MachineConfig mc;
    mc.numNodes = 4;
    mc.protocol = ProtocolConfig::hw(5);
    mc.mutation = ProtocolMutation::DropPointer;
    Machine m(mc);
    CoherenceAuditor auditor(CoherenceAuditor::Mode::Collect);
    m.attachAuditor(&auditor);

    Addr block = m.allocOn(0, blockBytes, blockBytes);
    m.debugWrite(block, 42);
    m.run([&](Mem &mem, int) -> Task<void> {
        Word v = co_await mem.read(block);
        EXPECT_EQ(v, 42u);
    });

    // Nodes 1..3 hold copies the mutated directory never recorded
    // (node 0 is covered by the local bit, which the mutation spares).
    EXPECT_GE(auditor.violationCount(), 3u);
    EXPECT_TRUE(anyViolationContains(
        auditor, "the directory does not cover"));
    m.attachAuditor(nullptr);
}

// ------------------------------------------------------------------
// The mutation is per-machine configuration. Before the fix it was a
// process global (g_protocolMutation), so a mutated run leaked its
// bug into every later run in the same process unless the caller
// remembered to reset it — and was a data race under any host-level
// concurrency. This regression test runs a mutated machine to
// completion, then a clean machine, and requires the clean run to be
// genuinely clean, with no reset call in between.
// ------------------------------------------------------------------

namespace
{

/** One 4-node read-share run; returns the audit violation count. */
std::uint64_t
auditedRunViolations(ProtocolMutation mutation)
{
    MachineConfig mc;
    mc.numNodes = 4;
    mc.protocol = ProtocolConfig::hw(5);
    mc.mutation = mutation;
    Machine m(mc);
    CoherenceAuditor auditor(CoherenceAuditor::Mode::Collect);
    m.attachAuditor(&auditor);

    Addr block = m.allocOn(0, blockBytes, blockBytes);
    m.debugWrite(block, 42);
    m.run([&](Mem &mem, int) -> Task<void> {
        Word v = co_await mem.read(block);
        EXPECT_EQ(v, 42u);
    });
    std::uint64_t n = auditor.violationCount();
    m.attachAuditor(nullptr);
    return n;
}

} // anonymous namespace

TEST(AuditMutation, MutationDoesNotLeakIntoLaterRuns)
{
    // The mutated machine must misbehave...
    EXPECT_GE(auditedRunViolations(ProtocolMutation::DropPointer), 3u);
    // ...and a subsequent default-configured machine in the same
    // process must not inherit the bug.
    EXPECT_EQ(auditedRunViolations(ProtocolMutation::None), 0u);
}

// ------------------------------------------------------------------
// Clean machinery must stay silent.
// ------------------------------------------------------------------

TEST(AuditClean, AuditedWorkerRunHasNoViolations)
{
    ExperimentSpec spec;
    spec.id = "test/audit-clean";
    spec.app = "worker";
    spec.nodes = 8;
    spec.protocol = ProtocolConfig::hw(5);
    spec.params["wss"] = "4";
    spec.audit = true;

    Runner runner(/*fail_fast=*/true);
    RunRecord &r = runner.run(spec);
    EXPECT_TRUE(r.verified);
    EXPECT_TRUE(r.audited);
    EXPECT_GT(r.auditTransitions, 0u);
    EXPECT_EQ(r.auditViolations, 0u);
}

TEST(AuditClean, EveryProtocolPassesUnderContention)
{
    // One contended block per protocol point, with the auditor in
    // panic mode: any invariant break aborts the test with context.
    for (const auto &pt : protocolSpectrum()) {
        SCOPED_TRACE(pt.label);
        MachineConfig mc;
        mc.numNodes = 8;
        mc.protocol = pt.protocol;
        Machine m(mc);
        CoherenceAuditor auditor(CoherenceAuditor::Mode::Panic);
        m.attachAuditor(&auditor);

        Addr ctr = m.allocOn(0, blockBytes, blockBytes);
        m.debugWrite(ctr, 0);
        m.run([&](Mem &mem, int) -> Task<void> {
            for (int i = 0; i < 6; ++i)
                co_await mem.fetchAdd(ctr, 1);
        });

        EXPECT_EQ(m.debugRead(ctr), 48u);
        EXPECT_GT(auditor.transitionsChecked(), 0u);
        m.checkInvariants();
        m.attachAuditor(nullptr);
    }
}

// ------------------------------------------------------------------
// Every quiescent rule, pinned: a finished run's machine is corrupted
// by hand (a cache fill or a directory-entry edit) and the sweep must
// name the rule the corruption breaks.
// ------------------------------------------------------------------

namespace
{

/** One hand-made corruption of a quiescent 4-node machine. */
struct Corruption
{
    const char *what;
    MachineConfig mc;
    /** Node 0 writes 5 into the block; else nodes 0..readers-1 read it. */
    bool write;
    int readers;
    void (*corrupt)(Machine &m, Addr block);
    const char *rule;   ///< fragment of the violation the sweep reports
};

MachineConfig
dirConfig(ProtocolConfig p)
{
    MachineConfig mc;
    mc.numNodes = 4;
    mc.protocol = p;
    return mc;
}

MachineConfig
busConfig(SnoopProtocol p)
{
    MachineConfig mc;
    mc.numNodes = 4;
    mc.machineModel = MachineModel::Snoop;
    mc.snoopProtocol = p;
    return mc;
}

DataBlock
blockOf(Word w0)
{
    DataBlock d;
    d.words[0] = w0;
    return d;
}

DirEntry &
entryOf(Machine &m, Addr block)
{
    return m.nodes[static_cast<std::size_t>(m.homeOf(block))]
        ->coh->home()->dir.entry(block);
}

const Corruption kCorruptions[] = {
    {"directory: second Modified copy",
     dirConfig(ProtocolConfig::hw(5)), true, 0,
     [](Machine &m, Addr b) {
         m.nodes[3]->cache().fill(b, LineState::Modified, blockOf(6));
     },
     "two dirty copies"},
    {"bus: second Modified copy", busConfig(SnoopProtocol::Mesi), true,
     0,
     [](Machine &m, Addr b) {
         m.nodes[3]->cache().fill(b, LineState::Modified, blockOf(6));
     },
     "two dirty copies"},
    {"directory: Modified copy beside a Shared one",
     dirConfig(ProtocolConfig::hw(5)), true, 0,
     [](Machine &m, Addr b) {
         m.nodes[3]->cache().fill(b, LineState::Shared, blockOf(5));
     },
     "in an exclusive state"},
    {"bus: Modified copy beside a Shared one",
     busConfig(SnoopProtocol::Mesi), true, 0,
     [](Machine &m, Addr b) {
         m.nodes[3]->cache().fill(b, LineState::Shared, blockOf(5));
     },
     "in an exclusive state"},
    {"bus: Exclusive copy beside a Shared one",
     busConfig(SnoopProtocol::Mesi), false, 1,
     [](Machine &m, Addr b) {
         ASSERT_EQ(m.nodes[0]->cache().peek(b)->state,
                   LineState::Exclusive);
         m.nodes[3]->cache().fill(b, LineState::Shared, blockOf(0));
     },
     "in an exclusive state"},
    {"bus: two Forward copies", busConfig(SnoopProtocol::Mesif), false,
     2,
     [](Machine &m, Addr b) {
         m.nodes[3]->cache().fill(b, LineState::Forward, blockOf(0));
     },
     "two Forward copies"},
    {"directory: Shared copies disagree",
     dirConfig(ProtocolConfig::hw(5)), false, 4,
     [](Machine &m, Addr b) {
         m.nodes[3]->cache().fill(b, LineState::Shared, blockOf(6));
     },
     "copies diverge"},
    {"bus: Shared copies disagree", busConfig(SnoopProtocol::Mesi),
     false, 4,
     [](Machine &m, Addr b) {
         m.nodes[3]->cache().fill(b, LineState::Shared, blockOf(6));
     },
     "copies diverge"},
    {"directory: too many pointers", dirConfig(ProtocolConfig::hw(2)),
     false, 1,
     [](Machine &m, Addr b) {
         DirEntry &e = entryOf(m, b);
         e.ptrs = {0, 1, 3};
         e.ptrCount = 3;
     },
     "3 hardware pointers recorded; at most 2 legal"},
    {"directory: Exclusive entry without its owner pointer",
     dirConfig(ProtocolConfig::hw(5)), true, 0,
     [](Machine &m, Addr b) { entryOf(m, b).ptrCount = 0; },
     "Exclusive without exactly one owner pointer"},
    {"directory: overflowed entry that is not Shared",
     dirConfig(ProtocolConfig::hw(5)), true, 0,
     [](Machine &m, Addr b) { entryOf(m, b).overflowed = true; },
     "overflowed bit set in state Exclusive"},
};

/** Run @p c's program to quiescence; returns its block (homed at
 *  node 2, so every node but the home is a remote holder). */
Addr
runToQuiescence(Machine &m, const Corruption &c)
{
    Addr block = m.allocOn(2, blockBytes, blockBytes);
    m.run([&](Mem &mem, int) -> Task<void> {
        if (c.write)
            co_await mem.write(block, 5);
        else
            co_await mem.read(block);
    }, c.write ? 1 : c.readers);
    return block;
}

} // anonymous namespace

TEST(AuditQuiescent, EveryRuleIsNamedOnACorruptedMachine)
{
    for (const Corruption &c : kCorruptions) {
        SCOPED_TRACE(c.what);
        Machine m(c.mc);
        Addr block = runToQuiescence(m, c);
        CoherenceAuditor auditor(CoherenceAuditor::Mode::Collect);
        m.attachAuditor(&auditor);
        auditor.checkQuiescent();
        EXPECT_EQ(auditor.violationCount(), 0u);

        c.corrupt(m, block);
        auditor.checkQuiescent();
        EXPECT_TRUE(anyViolationContains(auditor, c.rule));
        m.attachAuditor(nullptr);
    }
}

TEST(AuditQuiescentDeath, UnauditedCheckPanicsWithTheSameRule)
{
    // With no auditor attached, Machine::checkInvariants sweeps
    // through a Panic-mode auditor: the first violation it meets is
    // the corruption's rule.
    for (const Corruption &c : kCorruptions) {
        SCOPED_TRACE(c.what);
        Machine m(c.mc);
        Addr block = runToQuiescence(m, c);
        m.checkInvariants();
        c.corrupt(m, block);
        EXPECT_DEATH(m.checkInvariants(), c.rule);
    }
}

TEST(AuditMutationDeath, DropPointerPanicsAtTheEndOfAnUnauditedRun)
{
    // DropPointerCaughtAtQuiescence's run without an auditor: every
    // completed run ends with the quiescent sweep, so the uncovered
    // readers abort the run itself.
    MachineConfig mc;
    mc.numNodes = 4;
    mc.protocol = ProtocolConfig::hw(5);
    mc.mutation = ProtocolMutation::DropPointer;
    Machine m(mc);
    Addr block = m.allocOn(0, blockBytes, blockBytes);
    m.debugWrite(block, 42);
    EXPECT_DEATH(m.run([&](Mem &mem, int) -> Task<void> {
        co_await mem.read(block);
    }),
                 "does not cover");
}

// ------------------------------------------------------------------
// Seeded network jitter: a determinism stressor, not a chaos monkey.
// ------------------------------------------------------------------

namespace
{

std::pair<Tick, std::uint64_t>
jitteredWorkerRun(Cycles jitter_max, std::uint64_t jitter_seed)
{
    auto app = AppRegistry::instance().make(
        "worker", {{"wss", "4"}, {"iterations", "2"}}, 8);
    MachineConfig mc;
    mc.numNodes = 8;
    mc.protocol = ProtocolConfig::hw(5);
    mc.net.jitterMax = jitter_max;
    mc.net.jitterSeed = jitter_seed;
    Machine m(mc);
    CoherenceAuditor auditor(CoherenceAuditor::Mode::Panic);
    m.attachAuditor(&auditor);
    Tick cycles = app->runParallel(m);
    EXPECT_TRUE(app->verify(m));
    m.checkInvariants();
    m.attachAuditor(nullptr);
    return {cycles, m.imageHash()};
}

} // anonymous namespace

TEST(JitterDeterminism, SameSeedSameRun)
{
    auto a = jitteredWorkerRun(37, 7);
    auto b = jitteredWorkerRun(37, 7);
    EXPECT_EQ(a.first, b.first);    // identical timing
    EXPECT_EQ(a.second, b.second);  // identical final memory image
}

TEST(JitterDeterminism, JitterPerturbsTimingNotResults)
{
    auto base = jitteredWorkerRun(0, 7);
    auto jittered = jitteredWorkerRun(37, 7);
    auto reseeded = jitteredWorkerRun(37, 8);
    // Delayed deliveries reorder the protocol races and stretch the
    // critical path, so the cycle counts move; the memory image the
    // workload computes must not.
    EXPECT_NE(base.first, jittered.first);
    EXPECT_NE(jittered.first, reseeded.first);
    EXPECT_EQ(base.second, jittered.second);
    EXPECT_EQ(base.second, reseeded.second);
}

// ------------------------------------------------------------------
// MessagePool lifetime hardening.
// ------------------------------------------------------------------

namespace
{

void nopHandler(void *, Message &) {}

} // anonymous namespace

TEST(MessagePoolDeath, DoubleReleasePanics)
{
    MessagePool pool;
    PooledMsgEvent &e =
        pool.acquire(nullptr, nopHandler, EventPrio::Default);
    pool.release(e);
    EXPECT_DEATH(pool.release(e), "double release");
}

TEST(MessagePoolDeath, ReleasingScheduledEventPanics)
{
    MessagePool pool;
    EventQueue q;
    PooledMsgEvent &e =
        pool.acquire(nullptr, nopHandler, EventPrio::Default);
    q.schedule(e, 10);
    EXPECT_DEATH(pool.release(e), "still-scheduled");
    q.deschedule(e);
    pool.release(e);   // legal once descheduled
}

TEST(MessagePool, ReacquireAfterReleaseReusesStorage)
{
    MessagePool pool;
    PooledMsgEvent &a =
        pool.acquire(nullptr, nopHandler, EventPrio::Default);
    pool.release(a);
    PooledMsgEvent &b =
        pool.acquire(nullptr, nopHandler, EventPrio::Default);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(pool.capacity(), 1u);
    pool.release(b);
}
