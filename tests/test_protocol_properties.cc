/**
 * @file
 * Property-based tests of the coherence protocol spectrum. Every
 * protocol, from the software-only directory to full-map, must
 * provide sequentially consistent shared memory; these tests exercise
 * randomized and adversarial access patterns and check:
 *
 *  - single-writer monotonicity: a reader never observes a value
 *    older than one it has already seen,
 *  - atomic read-modify-write totals are exact under contention,
 *  - mutual exclusion built from swap holds,
 *  - final memory state matches the last write,
 *  - machine-wide coherence invariants hold at quiescence,
 *  - protocol choice and victim caching never change results.
 */

#include <gtest/gtest.h>

#include "audit/auditor.hh"
#include "base/rng.hh"
#include "core/spectrum.hh"
#include "machine/mem_api.hh"
#include "runtime/sync.hh"

using namespace swex;

namespace
{

struct ProtocolCase
{
    SpectrumPoint point;
    int nodes;
    unsigned victim;
};

std::vector<ProtocolCase>
allCases()
{
    std::vector<ProtocolCase> cases;
    for (const auto &pt : protocolSpectrum()) {
        cases.push_back({pt, 8, 0});
        cases.push_back({pt, 8, 4});
    }
    return cases;
}

std::string
caseName(const ::testing::TestParamInfo<ProtocolCase> &info)
{
    std::string n = info.param.point.label + "_n" +
                    std::to_string(info.param.nodes) +
                    (info.param.victim ? "_vc" : "");
    for (auto &c : n)
        if (c == '-')
            c = '_';
    return n;
}

MachineConfig
configFor(const ProtocolCase &pc)
{
    MachineConfig mc;
    mc.numNodes = pc.nodes;
    mc.protocol = pc.point.protocol;
    mc.victimEntries = pc.victim;
    return mc;
}

} // anonymous namespace

class ProtocolProperty : public ::testing::TestWithParam<ProtocolCase>
{};

TEST_P(ProtocolProperty, SingleWriterMonotonicity)
{
    // Each node owns one slot it increments; every node polls every
    // slot and checks that observed values never regress (SC).
    Machine m(configFor(GetParam()));
    int n = m.numNodes();
    SharedArray slots(m, static_cast<size_t>(n) * wordsPerBlock,
                      Layout::Blocked);
    slots.fill(m, 0);
    bool monotonic = true;

    m.run([&](Mem &mem, int tid) -> Task<void> {
        std::vector<Word> last(static_cast<size_t>(n), 0);
        Rng rng(1000 + static_cast<std::uint64_t>(tid));
        for (int round = 0; round < 30; ++round) {
            Addr mine = slots.at(
                static_cast<size_t>(tid) * wordsPerBlock);
            co_await mem.write(mine, static_cast<Word>(round + 1));
            for (int peek = 0; peek < 3; ++peek) {
                auto who = static_cast<size_t>(
                    rng.below(static_cast<std::uint64_t>(n)));
                Word v = co_await mem.read(
                    slots.at(who * wordsPerBlock));
                if (v < last[who])
                    monotonic = false;
                last[who] = v;
                co_await mem.work(rng.below(40) + 1);
            }
        }
    });

    EXPECT_TRUE(monotonic);
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(m.debugRead(slots.at(
            static_cast<size_t>(i) * wordsPerBlock)), 30u);
    m.checkInvariants();
}

TEST_P(ProtocolProperty, ContendedAtomicCounters)
{
    Machine m(configFor(GetParam()));
    int n = m.numNodes();
    // Three hot counters on different homes; every node hammers all.
    std::vector<Addr> ctrs = {
        m.allocOn(0, blockBytes, blockBytes),
        m.allocOn(n / 2, blockBytes, blockBytes),
        m.allocOn(n - 1, blockBytes, blockBytes),
    };
    const int per_thread = 12;

    m.run([&](Mem &mem, int tid) -> Task<void> {
        Rng rng(77 + static_cast<std::uint64_t>(tid));
        for (int i = 0; i < per_thread; ++i) {
            for (Addr c : ctrs) {
                co_await mem.fetchAdd(c, 1);
                co_await mem.work(rng.below(25) + 1);
            }
        }
    });

    for (Addr c : ctrs)
        EXPECT_EQ(m.debugRead(c),
                  static_cast<Word>(n * per_thread));
    m.checkInvariants();
}

TEST_P(ProtocolProperty, MutualExclusionUnderContention)
{
    Machine m(configFor(GetParam()));
    int n = m.numNodes();
    SpinLock lock = SpinLock::create(m, 0);
    Addr shared = m.allocOn(1, blockBytes, blockBytes);
    m.debugWrite(shared, 0);
    const int iters = 6;

    m.run([&](Mem &mem, int) -> Task<void> {
        for (int i = 0; i < iters; ++i) {
            co_await lock.acquire(mem);
            Word v = co_await mem.read(shared);
            co_await mem.work(23);
            co_await mem.write(shared, v + 1);
            co_await lock.release(mem);
        }
    });

    EXPECT_EQ(m.debugRead(shared), static_cast<Word>(n * iters));
    m.checkInvariants();
}

TEST_P(ProtocolProperty, RandomChaosLeavesCoherentState)
{
    // Random reads/writes/atomics over a small hot pool plus a cold
    // spread, with random compute in between. The system must end
    // quiescent and coherent, and the per-address "last writer wins"
    // value must be one actually written there.
    Machine m(configFor(GetParam()));
    int n = m.numNodes();
    constexpr int hot_blocks = 6;
    constexpr int cold_blocks = 64;
    SharedArray hot(m, hot_blocks * wordsPerBlock, Layout::Interleaved);
    SharedArray cold(m, cold_blocks * wordsPerBlock,
                     Layout::Interleaved);
    hot.fill(m, 0);
    cold.fill(m, 0);

    m.run([&](Mem &mem, int tid) -> Task<void> {
        Rng rng(31337 + static_cast<std::uint64_t>(tid) * 7919);
        for (int op = 0; op < 80; ++op) {
            bool use_hot = rng.chance(0.6);
            Addr a = use_hot
                ? hot.at(rng.below(hot_blocks) * wordsPerBlock)
                : cold.at(rng.below(cold_blocks) * wordsPerBlock);
            switch (rng.below(4)) {
              case 0:
              case 1:
                co_await mem.read(a);
                break;
              case 2:
                co_await mem.write(
                    a, (static_cast<Word>(tid) << 32) |
                       static_cast<Word>(op));
                break;
              default:
                co_await mem.fetchAdd(a, 1);
                break;
            }
            if (rng.chance(0.5))
                co_await mem.work(rng.below(60) + 1);
        }
    });

    m.checkInvariants();
    (void)n;
}

TEST_P(ProtocolProperty, ProducerConsumerChain)
{
    // Node i waits for a token from node i-1, adds one, passes it on.
    Machine m(configFor(GetParam()));
    int n = m.numNodes();
    SharedArray mail(m, static_cast<size_t>(n) * wordsPerBlock,
                     Layout::Blocked);
    mail.fill(m, 0);
    const int rounds = 4;

    m.run([&](Mem &mem, int tid) -> Task<void> {
        Addr in = mail.at(static_cast<size_t>(tid) * wordsPerBlock);
        Addr out = mail.at(
            static_cast<size_t>((tid + 1) % n) * wordsPerBlock);
        for (int r = 1; r <= rounds; ++r) {
            if (tid == 0) {
                if (r > 1) {
                    while (co_await mem.read(in) !=
                           static_cast<Word>(
                               (r - 1) * n))
                        co_await mem.work(30);
                }
                co_await mem.write(out,
                                   static_cast<Word>((r - 1) * n + 1));
            } else {
                Word expect = static_cast<Word>((r - 1) * n + tid);
                while (co_await mem.read(in) != expect)
                    co_await mem.work(30);
                co_await mem.write(out, expect + 1);
            }
        }
    });

    // After `rounds` laps, node 0's mailbox holds rounds*n.
    EXPECT_EQ(m.debugRead(mail.at(0)),
              static_cast<Word>(rounds * n));
    m.checkInvariants();
}

TEST_P(ProtocolProperty, ConflictEvictionStorm)
{
    // Six hot counters on different homes, all mapping to the same
    // cache set: every access evicts a dirty line, so the run is a
    // storm of writebacks, home-initiated fetches, NACK/re-fetch
    // races, and (when enabled) victim-cache swaps. The atomic totals
    // must still come out exact under every protocol.
    Machine m(configFor(GetParam()));
    int n = m.numNodes();
    std::vector<Addr> ctrs;
    for (int i = 0; i < 6; ++i)
        ctrs.push_back(m.allocAtIndex(i % n, blockBytes, 500));
    for (Addr c : ctrs)
        m.debugWrite(c, 0);
    const int rounds = 10;

    m.run([&](Mem &mem, int tid) -> Task<void> {
        Rng rng(555 + static_cast<std::uint64_t>(tid));
        for (int r = 0; r < rounds; ++r) {
            // Touch every counter in a per-thread order; consecutive
            // accesses conflict in the direct-mapped cache.
            for (int k = 0; k < 6; ++k) {
                auto idx = static_cast<std::size_t>(
                    (k + tid) % 6);
                co_await mem.fetchAdd(ctrs[idx], 1);
            }
            co_await mem.work(rng.below(30) + 1);
        }
    });

    for (Addr c : ctrs)
        EXPECT_EQ(m.debugRead(c),
                  static_cast<Word>(n * rounds));
    m.checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(Spectrum, ProtocolProperty,
                         ::testing::ValuesIn(allCases()), caseName);

// ------------------------------------------------------------------
// Cross-protocol result equivalence: the protocol is a performance
// knob, never a semantics knob.
// ------------------------------------------------------------------

TEST(ProtocolEquivalence, FinalStateIdenticalAcrossSpectrum)
{
    std::vector<Word> reference;
    for (const auto &pt : protocolSpectrum()) {
        SCOPED_TRACE(pt.label);
        MachineConfig mc;
        mc.numNodes = 8;
        mc.protocol = pt.protocol;
        Machine m(mc);
        SharedArray data(m, 32 * wordsPerBlock, Layout::Interleaved);
        data.fill(m, 0);

        // Deterministic per-slot ownership: slot s written by node
        // s % 8 with a value derived from (slot, iteration).
        m.run([&](Mem &mem, int tid) -> Task<void> {
            for (int it = 0; it < 5; ++it) {
                for (int s = tid; s < 32; s += 8) {
                    Addr a = data.at(
                        static_cast<size_t>(s) * wordsPerBlock);
                    Word v = co_await mem.read(a);
                    co_await mem.write(
                        a, v + static_cast<Word>(s + 1));
                }
                co_await mem.hwBarrier();
            }
        });

        std::vector<Word> finals;
        for (int s = 0; s < 32; ++s)
            finals.push_back(m.debugRead(
                data.at(static_cast<size_t>(s) * wordsPerBlock)));

        if (reference.empty()) {
            reference = finals;
            for (int s = 0; s < 32; ++s)
                EXPECT_EQ(reference[static_cast<size_t>(s)],
                          static_cast<Word>(5 * (s + 1)));
        } else {
            EXPECT_EQ(finals, reference);
        }
        m.checkInvariants();
    }
}

// ------------------------------------------------------------------
// Seeded jitter stress: the two most software-heavy protocols, DIR1SW
// and H0-ACK, at 16 nodes with randomized message delivery delays.
// Jitter reorders every protocol race the mesh timing normally hides
// (late acks, crossing fetches, stale replies); the workload's final
// memory must still be bit-identical to a quiet full-map run, and the
// invariant auditor must stay silent throughout.
// ------------------------------------------------------------------

namespace
{

/** Deterministic-ownership kernel: slot s belongs to node s % n, so
 *  the final memory image is interleaving-independent. Returns the
 *  machine's post-run memory image hash. */
std::uint64_t
jitteredOwnershipRun(const ProtocolConfig &protocol, Cycles jitter_max,
                     std::uint64_t jitter_seed)
{
    constexpr int n = 16;
    constexpr int slots = 64;
    constexpr int iters = 4;
    MachineConfig mc;
    mc.numNodes = n;
    mc.protocol = protocol;
    mc.net.jitterMax = jitter_max;
    mc.net.jitterSeed = jitter_seed;
    Machine m(mc);
    CoherenceAuditor auditor(CoherenceAuditor::Mode::Panic);
    m.attachAuditor(&auditor);

    SharedArray data(m, slots * wordsPerBlock, Layout::Interleaved);
    data.fill(m, 0);
    m.run([&](Mem &mem, int tid) -> Task<void> {
        for (int it = 0; it < iters; ++it) {
            for (int s = tid; s < slots; s += n) {
                Addr a = data.at(
                    static_cast<size_t>(s) * wordsPerBlock);
                Word v = co_await mem.read(a);
                co_await mem.write(a, v + static_cast<Word>(s + 1));
            }
            co_await mem.hwBarrier();
        }
    });

    for (int s = 0; s < slots; ++s)
        EXPECT_EQ(m.debugRead(data.at(
                      static_cast<size_t>(s) * wordsPerBlock)),
                  static_cast<Word>(iters * (s + 1)));
    m.checkInvariants();
    EXPECT_GT(auditor.transitionsChecked(), 0u);
    m.attachAuditor(nullptr);
    return m.imageHash();
}

} // anonymous namespace

TEST(JitterStress, SoftwareHeavyProtocolsSurviveJitteredDelivery)
{
    const std::uint64_t reference =
        jitteredOwnershipRun(ProtocolConfig::fullMap(), 0, 0);
    for (const auto &pc :
         {std::pair<const char *, ProtocolConfig>
              {"DIR1SW", ProtocolConfig::dir1sw()},
              {"H0-ACK", ProtocolConfig::h0()}}) {
        SCOPED_TRACE(pc.first);
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            SCOPED_TRACE(seed);
            EXPECT_EQ(jitteredOwnershipRun(pc.second, 37, seed),
                      reference);
        }
    }
}
