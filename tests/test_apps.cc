/**
 * @file
 * Application tests: every case-study application must produce its
 * host-verified result when run sequentially and in parallel, under
 * representative protocols, with the machine coherent at quiescence.
 */

#include <gtest/gtest.h>

#include <climits>
#include <tuple>

#include "apps/aq.hh"
#include "apps/evolve.hh"
#include "apps/mp3d.hh"
#include "apps/registry.hh"
#include "apps/smgrid.hh"
#include "apps/tsp.hh"
#include "apps/water.hh"
#include "core/spectrum.hh"

using namespace swex;

namespace
{

MachineConfig
appConfig(ProtocolConfig p, int nodes)
{
    MachineConfig mc;
    mc.numNodes = nodes;
    mc.protocol = p;
    mc.victimEntries = 6;   // victim caching on (Section 6)
    return mc;
}

} // anonymous namespace

// ------------------------------------------------------------------
// TSP
// ------------------------------------------------------------------

TEST(Tsp, GroundTruthIsConsistent)
{
    TspConfig tc;
    tc.numCities = 7;
    TspApp app(tc);
    EXPECT_GT(app.optimalCost(), 0);
    EXPECT_GT(app.expectedExpansions(), 1u);
}

TEST(Tsp, SequentialMatchesGroundTruth)
{
    TspConfig tc;
    tc.numCities = 7;
    TspApp app(tc);
    Machine m(appConfig(ProtocolConfig::fullMap(), 1));
    Tick t = app.runSequential(m);
    EXPECT_GT(t, 0u);
    EXPECT_TRUE(app.verify(m));
    m.checkInvariants();
}

TEST(Tsp, ParallelMatchesAcrossProtocols)
{
    for (const char *which : {"H0", "H1LACK", "H5", "FULL"}) {
        SCOPED_TRACE(which);
        ProtocolConfig p =
            which == std::string("H0") ? ProtocolConfig::h0()
            : which == std::string("H1LACK") ? ProtocolConfig::h1Lack()
            : which == std::string("H5") ? ProtocolConfig::hw(5)
            : ProtocolConfig::fullMap();
        TspConfig tc;
        tc.numCities = 7;
        TspApp app(tc);
        Machine m(appConfig(p, 8));
        Tick t = app.runParallel(m);
        EXPECT_GT(t, 0u);
        EXPECT_TRUE(app.verify(m));
        m.checkInvariants();
    }
}

TEST(Tsp, CollidingLayoutThrashesWithoutVictimCache)
{
    // The paper's Figure 3 mechanism: with the colliding layout and
    // no victim cache, the hot blocks thrash against the instruction
    // footprint; a small victim cache recovers the performance.
    auto run = [](bool collide, unsigned victim) {
        TspConfig tc;
        tc.numCities = 8;
        tc.expandWork = 400;
        tc.collideLayout = collide;
        TspApp app(tc);
        MachineConfig mc = appConfig(ProtocolConfig::hw(5), 8);
        mc.victimEntries = victim;
        Machine m(mc);
        Tick t = app.runParallel(m);
        EXPECT_TRUE(app.verify(m));
        return t;
    };
    Tick thrash = run(true, 0);
    Tick with_victim = run(true, 6);
    Tick no_collide = run(false, 0);
    EXPECT_GT(thrash, with_victim * 3 / 2);
    EXPECT_GT(thrash, no_collide * 3 / 2);
}

// ------------------------------------------------------------------
// AQ
// ------------------------------------------------------------------

TEST(Aq, GroundTruthNearClosedForm)
{
    AqConfig ac;
    ac.maxDepth = 8;
    AqApp app(ac);
    EXPECT_GT(app.expectedTasks(), 50u);
}

TEST(Aq, SequentialAndParallelMatch)
{
    AqConfig ac;
    ac.maxDepth = 7;
    {
        AqApp app(ac);
        Machine m(appConfig(ProtocolConfig::fullMap(), 1));
        app.runSequential(m);
        EXPECT_TRUE(app.verify(m));
    }
    for (const auto &pt : {SpectrumPoint{"H1", ProtocolConfig::h1()},
                           SpectrumPoint{"H5", ProtocolConfig::hw(5)}}) {
        SCOPED_TRACE(pt.label);
        AqApp app(ac);
        Machine m(appConfig(pt.protocol, 8));
        app.runParallel(m);
        EXPECT_TRUE(app.verify(m));
        m.checkInvariants();
    }
}

// ------------------------------------------------------------------
// SMGRID
// ------------------------------------------------------------------

TEST(Smgrid, SequentialReducesResidual)
{
    SmgridConfig sc;
    sc.fineSize = 17;
    SmgridApp app(sc);
    Machine m(appConfig(ProtocolConfig::fullMap(), 1));
    app.runSequential(m);
    EXPECT_TRUE(app.verify(m));
}

TEST(Smgrid, ParallelMatchesSequentialResidual)
{
    SmgridConfig sc;
    sc.fineSize = 17;

    SmgridApp seq_app(sc);
    Machine seq(appConfig(ProtocolConfig::fullMap(), 1));
    seq_app.runSequential(seq);
    double seq_res = seq_app.finalResidual(seq);

    for (const auto &pt :
         {SpectrumPoint{"H2", ProtocolConfig::hw(2)},
          SpectrumPoint{"FULL", ProtocolConfig::fullMap()}}) {
        SCOPED_TRACE(pt.label);
        SmgridApp app(sc);
        Machine m(appConfig(pt.protocol, 8));
        app.runParallel(m);
        EXPECT_TRUE(app.verify(m));
        // Jacobi with barriers is deterministic: the residual matches
        // the sequential run to accumulation-order noise.
        EXPECT_NEAR(app.finalResidual(m), seq_res,
                    1e-9 * (1 + seq_res));
        m.checkInvariants();
    }
}

// ------------------------------------------------------------------
// EVOLVE
// ------------------------------------------------------------------

TEST(Evolve, WalksTerminateAtLocalMaxima)
{
    EvolveConfig ec;
    ec.dimensions = 8;
    EvolveApp app(ec);
    app.computeGroundTruth(8);
    Machine m(appConfig(ProtocolConfig::fullMap(), 8));
    app.runParallel(m);
    EXPECT_TRUE(app.verify(m));
    m.checkInvariants();
}

TEST(Evolve, SequentialMatchesParallel)
{
    EvolveConfig ec;
    ec.dimensions = 8;
    {
        EvolveApp app(ec);
        app.computeGroundTruth(8);
        Machine m(appConfig(ProtocolConfig::hw(2), 1));
        app.runSequential(m);
        EXPECT_TRUE(app.verify(m));
    }
    {
        EvolveApp app(ec);
        app.computeGroundTruth(8);
        Machine m(appConfig(ProtocolConfig::h1Lack(), 8));
        app.runParallel(m);
        EXPECT_TRUE(app.verify(m));
    }
}

// ------------------------------------------------------------------
// MP3D
// ------------------------------------------------------------------

TEST(Mp3d, ChecksumMatchesHostModel)
{
    Mp3dConfig pc;
    pc.particles = 96;
    pc.steps = 3;
    {
        Mp3dApp app(pc);
        Machine m(appConfig(ProtocolConfig::fullMap(), 1));
        app.runSequential(m);
        EXPECT_TRUE(app.verify(m));
    }
    for (const auto &pt :
         {SpectrumPoint{"H0", ProtocolConfig::h0()},
          SpectrumPoint{"H5", ProtocolConfig::hw(5)}}) {
        SCOPED_TRACE(pt.label);
        Mp3dApp app(pc);
        Machine m(appConfig(pt.protocol, 8));
        app.runParallel(m);
        EXPECT_TRUE(app.verify(m));
        m.checkInvariants();
    }
}

// ------------------------------------------------------------------
// WATER
// ------------------------------------------------------------------

TEST(Water, ChecksumMatchesHostModel)
{
    WaterConfig wc;
    wc.molecules = 16;
    wc.steps = 2;
    {
        WaterApp app(wc);
        Machine m(appConfig(ProtocolConfig::fullMap(), 1));
        app.runSequential(m);
        EXPECT_TRUE(app.verify(m));
    }
    for (const auto &pt :
         {SpectrumPoint{"H1ACK", ProtocolConfig::h1Ack()},
          SpectrumPoint{"H5", ProtocolConfig::hw(5)}}) {
        SCOPED_TRACE(pt.label);
        WaterApp app(wc);
        Machine m(appConfig(pt.protocol, 8));
        app.runParallel(m);
        EXPECT_TRUE(app.verify(m));
        m.checkInvariants();
    }
}

// ------------------------------------------------------------------
// Cross-cutting: parallel runs beat sequential runs (sanity of the
// whole speedup methodology).
// ------------------------------------------------------------------

TEST(Speedup, ParallelFasterThanSequentialOnFullMap)
{
    WaterConfig wc;
    wc.molecules = 48;
    wc.steps = 2;
    wc.pairWork = 40;

    WaterApp seq_app(wc);
    Machine seq(appConfig(ProtocolConfig::fullMap(), 1));
    Tick t_seq = seq_app.runSequential(seq);

    WaterApp par_app(wc);
    Machine par(appConfig(ProtocolConfig::fullMap(), 8));
    Tick t_par = par_app.runParallel(par);

    EXPECT_TRUE(par_app.verify(par));
    double speedup =
        static_cast<double>(t_seq) / static_cast<double>(t_par);
    EXPECT_GT(speedup, 2.0);
    EXPECT_LT(speedup, 8.5);
}

TEST(AppParams, SharedAllocationBoundsHoldAtTheirEdges)
{
    // Each parameter that sizes a shared allocation is refused once
    // setup() would overrun a node's segment on the cell's machine:
    // the largest accepted value allocates on a machine of that size,
    // and one step past it is refused.
    struct Edge
    {
        const char *app;
        const char *key;
        AppParams base;           ///< the other parameters
        int threads;
        int machineNodes;
        std::uint64_t step;       ///< 2 where only odd values are valid
        std::uint64_t lo, hi;     ///< lo accepted, hi refused
        std::uint64_t largest;    ///< the edge the search must find
    };
    const Edge edges[] = {
        {"evolve", "dims", {{"walks", "1"}}, 2, 2, 1, 4, 20, 19},
        {"evolve", "dims", {{"walks", "1"}}, 8, 1, 1, 4, 20, 18},
        {"mp3d", "particles", {{"steps", "1"}}, 1, 1, 1, 1, 1u << 30,
         85970},
        {"smgrid", "fine", {{"vcycles", "1"}}, 1, 1, 2, 5,
         (1u << 20) + 1, 367},
        {"water", "molecules", {{"steps", "0"}}, 1, 1, 1, 1, 1u << 30,
         86012},
    };
    const AppRegistry &reg = AppRegistry::instance();
    for (const Edge &e : edges) {
        SCOPED_TRACE(std::string(e.app) + " on " +
                     std::to_string(e.machineNodes) + " nodes");
        auto with = [&](std::uint64_t v) {
            AppParams p = e.base;
            p[e.key] = std::to_string(v);
            return p;
        };
        auto why = [&](std::uint64_t v) {
            return reg.check(e.app, with(v), e.threads, e.machineNodes);
        };
        std::uint64_t lo = e.lo, hi = e.hi;
        ASSERT_EQ(why(lo), "");
        ASSERT_NE(why(hi), "");
        while (hi - lo > e.step) {
            const std::uint64_t mid = lo + (hi - lo) / e.step / 2 * e.step;
            (why(mid).empty() ? lo : hi) = mid;
        }
        EXPECT_EQ(lo, e.largest);
        EXPECT_NE(why(lo + e.step).find("does not fit the shared memory"),
                  std::string::npos)
            << why(lo + e.step);

        auto app = reg.make(e.app, with(lo), e.threads);
        Machine m(appConfig(ProtocolConfig::fullMap(), e.machineNodes));
        app->setup(m);
    }
}

TEST(AppParams, TspFrontierBoundHoldsAtItsEdge)
{
    // The pre-split holds at most frontier + cities - 3 tours, dealt
    // round-robin over one 2048-entry queue per node of the cell's
    // machine (one node for the sequential reference).
    const AppRegistry &reg = AppRegistry::instance();
    auto params = [](std::uint64_t frontier) {
        return AppParams{{"cities", "4"},
                         {"frontier", std::to_string(frontier)}};
    };
    for (const auto &[threads, machine_nodes, edge] :
         {std::tuple{2, 2, 4095ull}, std::tuple{1, 1, 2047ull}}) {
        SCOPED_TRACE(std::to_string(machine_nodes) + " nodes");
        EXPECT_EQ(TspApp::maxFrontier(4, machine_nodes), edge);
        EXPECT_EQ(reg.check("tsp", params(edge), threads, machine_nodes),
                  "");
        EXPECT_EQ(reg.check("tsp", params(edge + 1), threads,
                            machine_nodes),
                  "tsp: parameter frontier=" + std::to_string(edge + 1) +
                      " must be at most " + std::to_string(edge) +
                      ": the pre-split must fit the work queues of a " +
                      std::to_string(machine_nodes) + "-node machine");
    }

    auto app = reg.make("tsp", params(4095), 2);
    Machine m(appConfig(ProtocolConfig::hw(5), 2));
    app->runParallel(m);
    EXPECT_EQ(m.runStatus(), Machine::RunStatus::Completed);
    EXPECT_TRUE(app->verify(m));
}

TEST(ParamReader, IntegersAreDecimalDigitsOnly)
{
    // "010" is ten, not octal eight.
    AppParams params{{"wss", "010"}, {"think", "007"}, {"neg", "-3"}};
    ParamReader r(params, "demo");
    EXPECT_EQ(r.getCount("wss", 0), 10);
    EXPECT_EQ(r.getU64("think", 0), 7u);
    EXPECT_EQ(r.getInt("neg", 0), -3);
    EXPECT_EQ(r.finish(), "");

    // A base prefix, a sign other than getInt's '-', and spaces are
    // refused; the value reads as the default.
    for (const char *bad : {"0x8", "+8", " 8", "8 ", "", "-", "1e3"}) {
        const AppParams one{{"wss", bad}};
        ParamReader b(one, "demo");
        EXPECT_EQ(b.getInt("wss", 4), 4) << bad;
        EXPECT_EQ(b.finish(),
                  std::string("demo: parameter wss=") + bad +
                      " is not an integer");
    }
    const AppParams past{{"n", "-2147483649"}};
    ParamReader big(past, "demo");
    EXPECT_EQ(big.getInt("n", 1), 1);
    EXPECT_EQ(big.finish(), "demo: parameter n=-2147483649 is out of range");
    const AppParams least{{"n", "-2147483648"}};
    ParamReader min(least, "demo");
    EXPECT_EQ(min.getInt("n", 1), INT_MIN);
}
