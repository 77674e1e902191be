/**
 * @file
 * Quickstart: build a 16-node software-extended machine, run a small
 * shared-memory program on it, and inspect what the memory system
 * did. Start here to learn the public API.
 */

#include <cstdio>

#include "core/spectrum.hh"
#include "machine/mem_api.hh"
#include "runtime/shmem.hh"
#include "runtime/sync.hh"

using namespace swex;

int
main()
{
    // 1. Configure the machine: 16 nodes, five hardware directory
    //    pointers per block with software extension (Alewife's
    //    default boot configuration), victim caching on.
    MachineConfig cfg;
    cfg.numNodes = 16;
    cfg.protocol = ProtocolConfig::hw(5);   // Dir_n H_5 S_NB
    cfg.victimEntries = 6;
    Machine m(cfg);

    // 2. Lay out shared data: a histogram all nodes update, guarded
    //    by a spin lock, plus a barrier -- all in simulated shared
    //    memory, so they generate real coherence traffic.
    SharedArray hist(m, 16, Layout::Interleaved);
    hist.fill(m, 0);
    SpinLock lock = SpinLock::create(m, 0);
    TreeBarrier barrier = TreeBarrier::create(m, cfg.numNodes);
    Addr total = m.allocOn(0, blockBytes, blockBytes);
    m.debugWrite(total, 0);

    // 3. Write the parallel program as a coroutine: every memory
    //    operation is awaited and resolved by the coherence protocol.
    Tick elapsed = m.run([&](Mem &mem, int tid) -> Task<void> {
        TreeBarrier bar = barrier;   // thread-private sense
        // Each node bins 64 pseudo-random samples.
        std::uint64_t x = 88172645463325252ull +
                          static_cast<std::uint64_t>(tid);
        for (int i = 0; i < 64; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            co_await mem.work(50);   // "compute" the sample
            co_await mem.fetchAdd(hist.at(x % 16), 1);
        }
        co_await bar.wait(mem);

        // Node 0 reduces the histogram under the lock.
        if (tid == 0) {
            Word sum = 0;
            for (int b = 0; b < 16; ++b)
                sum += co_await mem.read(
                    hist.at(static_cast<std::size_t>(b)));
            co_await lock.acquire(mem);
            co_await mem.write(total, sum);
            co_await lock.release(mem);
        }
    });

    // 4. Inspect the results and the memory system's behavior.
    std::printf("ran %d nodes for %llu cycles under %s\n",
                cfg.numNodes,
                static_cast<unsigned long long>(elapsed),
                cfg.protocol.name().c_str());
    std::printf("total samples binned: %llu (expected %d)\n",
                static_cast<unsigned long long>(m.debugRead(total)),
                16 * 64);
    std::printf("software traps taken: %.0f\n",
                m.sumStat("home.trapsRaised"));
    std::printf("cycles in protocol software: %.0f\n",
                m.sumStat("home.handlerCycles"));
    std::printf("invalidations: %.0f hw, %.0f sw\n",
                m.sumStat("home.hwInvsSent"),
                m.sumStat("home.swInvsSent"));

    // The machine must be coherent at quiescence.
    m.checkInvariants();
    std::printf("coherence invariants hold\n");
    return 0;
}
