/**
 * @file
 * The spectrum of software-extended coherence protocols, in the
 * paper's Dir_i H_X S_{Y,A} notation (Section 2.5).
 *
 * A protocol is characterized by:
 *  - the number of directory pointers implemented in hardware (0..5,
 *    or full-map),
 *  - how invalidation acknowledgments are collected (in hardware, in
 *    hardware with a trap on the last ack, or with a trap on every
 *    ack),
 *  - whether the software maintains a complete directory extension
 *    (NB) or resorts to broadcast when the pointers overflow (B, the
 *    Dir1SW family of Wood et al.),
 *  - whether the special one-bit pointer for the home node exists
 *    (Section 3.1; it prevents a node from overflowing its own
 *    directory).
 */

#ifndef SWEX_CORE_PROTOCOL_HH
#define SWEX_CORE_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "base/logging.hh"

namespace swex
{

/** Maximum number of hardware directory pointers (as in Alewife). */
constexpr int maxHwPointers = 5;

/**
 * Deliberate protocol-bug injection used to validate the auditor: a
 * mutation smoke test enables one bug, runs the protocol, and asserts
 * the CoherenceAuditor catches it. Every build compiles the three
 * bugs; the injected branches are host-side only and never charge
 * simulated cycles, so with the mutation set to None every simulated
 * cycle count is that of the correct protocol.
 *
 * The mutation is per-machine configuration (MachineConfig::mutation,
 * threaded down to every HomeController), never process state: one
 * mutated run cannot leak its bug into a later run in the same
 * process, and concurrent machines on different host threads cannot
 * observe each other's mutation.
 */
enum class ProtocolMutation : std::uint8_t
{
    None,            ///< protocol behaves correctly
    AckOvercount,    ///< write transaction expects one ack too many
    DropPointer,     ///< a granted reader is not recorded in the dir
    SkipLastAckTrap, ///< the final ack fails to raise the LACK trap
};

/** How invalidation acknowledgments reach the directory. */
enum class AckMode : std::uint8_t
{
    Hardware,   ///< hardware counts all acks (S_{..} with no A field)
    LastAck,    ///< hardware counts, software trap on the last (LACK)
    EveryAck,   ///< software trap on every acknowledgment (ACK)
};

/** Full protocol configuration. */
struct ProtocolConfig
{
    /** Hardware pointers; -1 selects the full-map bit vector. */
    int hwPointers = maxHwPointers;

    AckMode ackMode = AckMode::Hardware;

    /**
     * If true, the software does not extend the directory: it
     * broadcasts invalidations when more than hwPointers copies exist
     * (the Dir_1 H_1 S_{B,LACK} protocol).
     */
    bool swBroadcast = false;

    /** One-bit pointer for the node local to the directory. */
    bool localBit = true;

    bool isFullMap() const { return hwPointers < 0; }

    /** Livelock watchdog needed (software handles acks)? */
    bool
    needsWatchdog() const
    {
        return ackMode == AckMode::EveryAck;
    }

    // ------------------------------------------------------------
    // Named points on the spectrum (paper Sections 2.1-2.5).
    // ------------------------------------------------------------

    /** Dir_n H_NB S_- : the full-map protocol (DASH-style). */
    static ProtocolConfig
    fullMap()
    {
        ProtocolConfig p;
        p.hwPointers = -1;
        return p;
    }

    /** Dir_n H_i S_NB for i in [2,5] (also accepts 1 for H1). */
    static ProtocolConfig
    hw(int pointers)
    {
        SWEX_ASSERT(pointers >= 1 && pointers <= maxHwPointers,
                    "hwPointers out of range: %d", pointers);
        ProtocolConfig p;
        p.hwPointers = pointers;
        return p;
    }

    /** Dir_n H_1 S_NB : one pointer, hardware collects all acks. */
    static ProtocolConfig h1() { return hw(1); }

    /** Dir_n H_1 S_{NB,LACK} : trap on the last acknowledgment. */
    static ProtocolConfig
    h1Lack()
    {
        ProtocolConfig p = hw(1);
        p.ackMode = AckMode::LastAck;
        return p;
    }

    /** Dir_n H_1 S_{NB,ACK} : trap on every acknowledgment. */
    static ProtocolConfig
    h1Ack()
    {
        ProtocolConfig p = hw(1);
        p.ackMode = AckMode::EveryAck;
        return p;
    }

    /**
     * Dir_n H_0 S_{NB,ACK} : the software-only directory. The only
     * hardware support is one bit per block marking that a remote
     * node has touched it; there is no local-bit pointer.
     */
    static ProtocolConfig
    h0()
    {
        ProtocolConfig p;
        p.hwPointers = 0;
        p.ackMode = AckMode::EveryAck;
        p.localBit = false;
        return p;
    }

    /** Dir_1 H_1 S_{B,LACK} : Wood et al.'s Dir1SW comparison point. */
    static ProtocolConfig
    dir1sw()
    {
        ProtocolConfig p = hw(1);
        p.ackMode = AckMode::LastAck;
        p.swBroadcast = true;
        return p;
    }

    /** Paper notation string, e.g. "DirnH5S-NB". */
    std::string
    name() const
    {
        if (isFullMap())
            return "DirnHnbS-";
        std::string ack;
        switch (ackMode) {
          case AckMode::Hardware: ack = ""; break;
          case AckMode::LastAck: ack = ",LACK"; break;
          case AckMode::EveryAck: ack = ",ACK"; break;
        }
        std::string scope = swBroadcast ? "Dir1" : "Dirn";
        std::string mode = swBroadcast ? "B" : "NB";
        return scope + "H" + std::to_string(hwPointers) + "S" +
               mode + ack;
    }
};

} // namespace swex

#endif // SWEX_CORE_PROTOCOL_HH
