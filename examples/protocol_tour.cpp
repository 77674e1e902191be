/**
 * @file
 * A tour of the protocol spectrum: runs the WATER application on a
 * 32-node machine under every protocol the paper evaluates, printing
 * cost (directory bits per block) against performance -- the
 * fundamental tradeoff of software-extended shared memory.
 */

#include <cstdio>

#include "apps/water.hh"
#include "core/spectrum.hh"
#include "machine/mem_api.hh"

using namespace swex;

namespace
{

/** Directory cost in bits per memory block, as the paper accounts. */
int
directoryBits(const ProtocolConfig &p, int nodes)
{
    int node_bits = 1;
    while ((1 << node_bits) < nodes)
        ++node_bits;
    if (p.isFullMap())
        return nodes;                    // one bit per node
    int bits = p.hwPointers * node_bits; // explicit pointers
    if (p.localBit)
        bits += 1;
    if (p.hwPointers == 0)
        bits += 1;                       // the remote-touched bit
    if (p.hwPointers >= 1)
        bits += node_bits;               // the ack counter
    return bits;
}

} // anonymous namespace

int
main()
{
    setQuiet(true);
    const int nodes = 32;

    WaterConfig wc;
    wc.molecules = 48;

    // Sequential baseline (one node, no synchronization).
    WaterApp seq_app(wc);
    MachineConfig seq_cfg;
    seq_cfg.numNodes = 1;
    seq_cfg.protocol = ProtocolConfig::fullMap();
    seq_cfg.victimEntries = 6;
    Machine seq_m(seq_cfg);
    Tick t_seq = seq_app.runSequential(seq_m);

    std::printf("WATER (%d molecules) on %d nodes, across the "
                "protocol spectrum\n", wc.molecules, nodes);
    std::printf("%-26s %10s %10s %9s %8s\n", "protocol", "dir bits",
                "cycles", "speedup", "traps");
    for (int i = 0; i < 68; ++i)
        std::putchar('-');
    std::putchar('\n');

    for (const auto &pt : protocolSpectrum()) {
        WaterApp app(wc);
        MachineConfig cfg;
        cfg.numNodes = nodes;
        cfg.protocol = pt.protocol;
        cfg.victimEntries = 6;
        Machine m(cfg);
        Tick t = app.runParallel(m);
        if (!app.verify(m)) {
            std::printf("%s: verification FAILED\n",
                        pt.protocol.name().c_str());
            return 1;
        }
        m.checkInvariants();
        std::printf("%-26s %10d %10llu %9.1f %8.0f\n",
                    pt.protocol.name().c_str(),
                    directoryBits(pt.protocol, nodes),
                    static_cast<unsigned long long>(t),
                    static_cast<double>(t_seq) /
                        static_cast<double>(t),
                    m.sumStat("home.trapsRaised"));
    }
    std::printf("\nThe paper's conclusion in one table: a few "
                "pointers buy nearly all of\nfull-map's performance "
                "at a small fraction of its directory cost.\n");
    return 0;
}
