/**
 * @file
 * Snooping machine-model tests: the full protocol family must run the
 * sharing-pattern microworkloads to verified completion under audit,
 * the invalidate/update families must be measurably different on the
 * bus (MESI invalidates where Dragon updates in place), bus runs must
 * be deterministic, and a bus machine must leave no trace in later
 * directory machines built in the same process.
 */

#include <gtest/gtest.h>

#include <utility>

#include "apps/registry.hh"
#include "audit/auditor.hh"
#include "machine/mem_api.hh"
#include "machine/snoop.hh"

using namespace swex;

namespace
{

constexpr SnoopProtocol kProtocols[] = {
    SnoopProtocol::Mesi, SnoopProtocol::Moesi,
    SnoopProtocol::Mesif, SnoopProtocol::Dragon};

MachineConfig
snoopConfig(SnoopProtocol p, int nodes,
            BusArbitration arb = BusArbitration::Fifo)
{
    MachineConfig mc;
    mc.numNodes = nodes;
    mc.machineModel = MachineModel::Snoop;
    mc.snoopProtocol = p;
    mc.busArbitration = arb;
    return mc;
}

/** Run @p app_name on a bus machine; returns (cycles, imageHash). */
std::pair<Tick, std::uint64_t>
snoopRun(const char *app_name, SnoopProtocol p, int nodes)
{
    auto app = AppRegistry::instance().make(
        app_name, {{"iterations", "4"}}, nodes);
    Machine m(snoopConfig(p, nodes));
    Tick cycles = app->runParallel(m);
    EXPECT_TRUE(app->verify(m)) << app_name;
    m.checkInvariants();
    return {cycles, m.imageHash()};
}

} // anonymous namespace

// ------------------------------------------------------------------
// Smoke: every protocol x every microworkload, auditor attached.
// ------------------------------------------------------------------

TEST(SnoopSmoke, AllProtocolsRunAllMicroworkloadsUnderAudit)
{
    for (SnoopProtocol p : kProtocols) {
        for (const char *app_name : {"falseshare", "padded",
                                     "hotline"}) {
            SCOPED_TRACE(std::string(snoopProtocolName(p)) + "/" +
                         app_name);
            auto app = AppRegistry::instance().make(
                app_name, {{"iterations", "4"}}, 4);
            Machine m(snoopConfig(p, 4));
            CoherenceAuditor auditor(CoherenceAuditor::Mode::Collect);
            m.attachAuditor(&auditor);

            Tick cycles = app->runParallel(m);
            EXPECT_GT(cycles, 0u);
            EXPECT_TRUE(app->verify(m));
            m.checkInvariants();
            EXPECT_GT(auditor.transitionsChecked(), 0u);
            EXPECT_EQ(auditor.violationCount(), 0u);
            m.attachAuditor(nullptr);
        }
    }
}

TEST(SnoopSmoke, BothArbitrationDisciplinesComplete)
{
    for (BusArbitration arb : {BusArbitration::Fifo,
                               BusArbitration::RoundRobin}) {
        SCOPED_TRACE(busArbitrationName(arb));
        auto app = AppRegistry::instance().make(
            "falseshare", {{"iterations", "4"}}, 4);
        Machine m(snoopConfig(SnoopProtocol::Mesi, 4, arb));
        EXPECT_GT(app->runParallel(m), 0u);
        EXPECT_TRUE(app->verify(m));
        m.checkInvariants();
    }
}

// ------------------------------------------------------------------
// Protocol differentiation: the invalidate family ping-pongs the
// falsely-shared blocks while Dragon updates peers word by word.
// ------------------------------------------------------------------

TEST(SnoopDifferentiation, MesiInvalidatesWhereDragonUpdates)
{
    auto bus_stats = [](SnoopProtocol p, const char *app_name) {
        auto app = AppRegistry::instance().make(
            app_name, {{"iterations", "4"}}, 4);
        Machine m(snoopConfig(p, 4));
        EXPECT_GT(app->runParallel(m), 0u);
        EXPECT_TRUE(app->verify(m));
        auto *bus = dynamic_cast<SnoopBackend *>(m.backend.get());
        EXPECT_NE(bus, nullptr);
        struct { double inval, upd, word_upd, rdx; } s = {
            bus->invalidations.value(), bus->updates.value(),
            bus->wordUpdates.value(), bus->readExcl.value()};
        return s;
    };

    auto mesi = bus_stats(SnoopProtocol::Mesi, "falseshare");
    EXPECT_GT(mesi.inval, 0.0);
    EXPECT_GT(mesi.rdx, 0.0);
    EXPECT_EQ(mesi.upd, 0.0);
    EXPECT_EQ(mesi.word_upd, 0.0);

    auto dragon = bus_stats(SnoopProtocol::Dragon, "falseshare");
    EXPECT_GT(dragon.upd, 0.0);
    EXPECT_GT(dragon.word_upd, 0.0);
    EXPECT_EQ(dragon.inval, 0.0);

    // The padded control shares nothing: neither family pays a
    // coherence price for the counters.
    auto padded = bus_stats(SnoopProtocol::Mesi, "padded");
    EXPECT_EQ(padded.inval, 0.0);
    auto padded_dragon = bus_stats(SnoopProtocol::Dragon, "padded");
    EXPECT_EQ(padded_dragon.word_upd, 0.0);
}

// ------------------------------------------------------------------
// Determinism and cross-model isolation.
// ------------------------------------------------------------------

TEST(SnoopDeterminism, SameConfigSameRun)
{
    auto a = snoopRun("falseshare", SnoopProtocol::Moesi, 4);
    auto b = snoopRun("falseshare", SnoopProtocol::Moesi, 4);
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

TEST(SnoopIsolation, BusRunLeavesNoTraceInLaterDirectoryRuns)
{
    // A directory run, a bus run, then the directory run again: the
    // bus machine must not perturb the directory machine's timing or
    // final memory image through any process-global state.
    auto directory_run = [] {
        auto app = AppRegistry::instance().make(
            "worker", {{"wss", "4"}, {"iterations", "2"}}, 8);
        MachineConfig mc;
        mc.numNodes = 8;
        mc.protocol = ProtocolConfig::hw(5);
        Machine m(mc);
        Tick cycles = app->runParallel(m);
        EXPECT_TRUE(app->verify(m));
        m.checkInvariants();
        return std::pair<Tick, std::uint64_t>{cycles, m.imageHash()};
    };

    auto before = directory_run();
    snoopRun("falseshare", SnoopProtocol::Dragon, 4);
    snoopRun("hotline", SnoopProtocol::Mesi, 4);
    auto after = directory_run();
    EXPECT_EQ(before.first, after.first);
    EXPECT_EQ(before.second, after.second);
}
