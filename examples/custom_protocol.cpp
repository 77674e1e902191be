/**
 * @file
 * Writing an application-specific protocol with the flexible
 * coherence interface (paper Sections 4 and 7).
 *
 * The paper's "dynamic detection" enhancement observes that some
 * widely-shared, frequently-written blocks (here: a broadcast flag
 * all nodes poll) are better served by a broadcast invalidation than
 * by walking the software directory. This example registers a custom
 * handler that claims WriteOverflow traps for one designated block
 * and broadcasts, leaving every other block on the default handlers
 * -- the "data specific" protocol selection of Section 7.
 */

#include <cstdio>

#include "core/coherence_interface.hh"
#include "core/home_controller.hh"
#include "machine/mem_api.hh"
#include "runtime/shmem.hh"

using namespace swex;

namespace
{

Tick
runPublisher(Machine &m, Addr flag, SharedArray &sink, int rounds)
{
    return m.run([&, flag, rounds](Mem &mem, int tid) -> Task<void> {
        if (tid == 0) {
            // Publisher: bump the flag; all other nodes re-read it.
            for (int r = 1; r <= rounds; ++r) {
                co_await mem.write(flag, static_cast<Word>(r));
                co_await mem.work(600);
            }
        } else {
            Word last = 0;
            while (last < static_cast<Word>(rounds)) {
                Word v = co_await mem.read(flag);
                if (v != last) {
                    last = v;
                    co_await mem.write(
                        sink.at(static_cast<std::size_t>(tid)), v);
                }
                co_await mem.work(40);
            }
        }
    });
}

} // anonymous namespace

int
main()
{
    const int rounds = 24;
    Tick base_time = 0, custom_time = 0;

    for (bool use_custom : {false, true}) {
        MachineConfig cfg;
        cfg.numNodes = 32;
        cfg.protocol = ProtocolConfig::hw(5);
        cfg.victimEntries = 6;
        Machine m(cfg);

        Addr flag = m.allocOn(0, blockBytes, blockBytes);
        m.debugWrite(flag, 0);
        SharedArray sink(m, static_cast<std::size_t>(cfg.numNodes),
                         Layout::Blocked);
        sink.fill(m, 0);

        int custom_fired = 0;
        if (use_custom) {
            // Register the custom handler on the flag's home node.
            // It claims write-overflow traps for this block only and
            // performs a broadcast invalidation: O(n) sends but no
            // per-pointer directory walk and no hash/free-list work.
            m.nodes[0]->home().setCustomHandler(
                [flag, &custom_fired](CoherenceInterface &ci) -> bool {
                    if (ci.item().kind != TrapKind::WriteOverflow ||
                        blockAlign(ci.item().msg.addr) != flag)
                        return false;   // not ours: default handler
                    ++custom_fired;
                    DirEntry &e = ci.hwEntry();
                    NodeId req = ci.item().msg.src;
                    unsigned sent = 0;
                    for (NodeId n = 0; n < ci.numNodes(); ++n) {
                        if (n == req || n == ci.homeNode())
                            continue;
                        ci.sendInv(n);
                        ++sent;
                    }
                    if (req != ci.homeNode())
                        ci.flushLocalCache();
                    if (ci.extLookup())
                        ci.extRelease();
                    e.clearSharers();
                    e.overflowed = false;
                    e.ackCount = sent;
                    if (sent == 0)
                        return false;   // nothing to invalidate
                    e.state = DirState::PendWrite;
                    e.pendingNode = req;
                    e.pendingIsWrite = true;
                    e.pendingSwSend = false;   // hw sends the grant
                    return true;
                });
        }

        Tick t = runPublisher(m, flag, sink, rounds);
        m.checkInvariants();

        // Every subscriber must have observed the final round.
        for (int n = 1; n < cfg.numNodes; ++n) {
            if (m.debugRead(sink.at(static_cast<std::size_t>(n))) !=
                static_cast<Word>(rounds)) {
                std::printf("subscriber %d missed the final round!\n",
                            n);
                return 1;
            }
        }

        std::printf("%-18s %8llu cycles, traps=%.0f, "
                    "sw invs=%.0f\n",
                    use_custom ? "custom broadcast:"
                               : "default handlers:",
                    static_cast<unsigned long long>(t),
                    m.sumStat("home.trapsRaised"),
                    m.sumStat("home.swInvsSent"));
        if (use_custom)
            std::printf("custom handler claimed %d traps\n",
                        custom_fired);
        (use_custom ? custom_time : base_time) = t;
    }

    std::printf("custom protocol is %.2fx the default's run time\n",
                static_cast<double>(custom_time) /
                    static_cast<double>(base_time));
    return 0;
}
