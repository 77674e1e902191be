/**
 * @file
 * The coherence-backend seam: the Machine owns one CoherenceBackend
 * (the machine model — directory/software-extended or snooping bus),
 * and every Node owns one NodeCoherence built by that backend. The
 * processor, the Machine's debug/verification surface, and the Runner
 * talk to these interfaces only; everything protocol-specific lives
 * behind them.
 *
 * The directory backend wraps the historical CacheController +
 * HomeController pair over the point-to-point mesh, bit-identically.
 * The snooping backend replaces the fabric with a split-transaction
 * shared bus carrying the MESI/MOESI/MESIF/Dragon family.
 */

#ifndef SWEX_MACHINE_COHERENCE_HH
#define SWEX_MACHINE_COHERENCE_HH

#include <memory>
#include <string>

#include "base/types.hh"
#include "core/node_services.hh"
#include "machine/processor.hh"
#include "mem/cache.hh"

namespace swex
{

class CoherenceAuditor;
class HomeController;
class Machine;
struct MachineConfig;
class Node;
struct AuditNodeView;

/** Which machine model carries coherence. */
enum class MachineModel : std::uint8_t
{
    Directory,   ///< home directories over the point-to-point mesh
    Snoop,       ///< split-transaction shared bus, snooping caches
};

const char *machineModelName(MachineModel m);

/** Snooping protocol family (MachineModel::Snoop only). */
enum class SnoopProtocol : std::uint8_t
{
    Mesi,     ///< invalidate; E for private clean lines
    Moesi,    ///< invalidate; O supplies dirty-shared data
    Mesif,    ///< invalidate; F designates the clean forwarder
    Dragon,   ///< update; writes to shared lines broadcast the word
};

const char *snoopProtocolName(SnoopProtocol p);

/** The --protocol key of a snooping protocol (mesi|moesi|mesif|
 *  dragon). @return false if @p s names none. */
bool parseSnoopProtocol(const std::string &s, SnoopProtocol &out);

/** Bus service discipline for queued requests. */
enum class BusArbitration : std::uint8_t
{
    Fifo,        ///< strict arrival order
    RoundRobin,  ///< rotating priority over requesting nodes
};

const char *busArbitrationName(BusArbitration a);

/** The --bus key of a discipline (fifo|rr). @return false if @p s
 *  names none. */
bool parseBusArbitration(const std::string &s, BusArbitration &out);

/** Shared-bus timing knobs (MachineModel::Snoop only). */
struct SnoopBusConfig
{
    Cycles addrCycles = 2;   ///< address/snoop phase occupancy
    Cycles dataCycles = 4;   ///< one block transfer on the data bus
    Cycles updCycles = 1;    ///< one word broadcast (Dragon BusUpd)
    Cycles c2cLatency = 2;   ///< owner-cache turnaround before supply
    BusArbitration arbitration = BusArbitration::Fifo;
};

/**
 * Per-node coherence engine. Owns the node's cache; services the
 * processor's memory operations; answers whatever the machine model
 * routes at the node (network messages for the directory, nothing for
 * the bus — snooping peers are reached through the bus itself).
 */
class NodeCoherence
{
  public:
    virtual ~NodeCoherence() = default;

    // ---- processor side ---------------------------------------------
    /** Issue one processor memory operation (one outstanding). */
    virtual void issue(MemOpType type, Addr addr, Word operand) = 0;

    /** Charge one instruction-block fetch; returns stall cycles. */
    virtual Cycles instrTouch(Addr block_addr) = 0;

    /** Run a queued software-extension trap (directory model only). */
    virtual Cycles runTrap(const TrapItem &item) = 0;

    // ---- node services ----------------------------------------------
    virtual RemovalResult invalidateLocal(Addr block_addr) = 0;
    virtual RemovalResult downgradeLocal(Addr block_addr) = 0;

    /** Route an arriving network message (directory model only). */
    virtual void dispatchRx(const Message &msg) = 0;

    /**
     * Give the backend first claim on an outgoing message (the
     * directory applies local grants synchronously); return true when
     * the message was fully handled.
     */
    virtual bool interceptSend(const Message &msg, Cycles delay) = 0;

    // ---- inspection ---------------------------------------------------
    /** The node's cache (debug reads, image hashing, layout). */
    virtual Cache &cache() = 0;

    const Cache &
    cache() const
    {
        return const_cast<NodeCoherence *>(this)->cache();
    }

    /** Directory home controller, or null on non-directory models. */
    virtual HomeController *home() { return nullptr; }

    const HomeController *
    home() const
    {
        return const_cast<NodeCoherence *>(this)->home();
    }

    /** Hook the auditor into this node's transition stream. */
    virtual void setAuditHook(CoherenceAuditor *a) = 0;

    /** The auditor's read-only view of this node. */
    virtual AuditNodeView auditView(NodeId id) const = 0;

    /** Per-node structural invariants (panics on violation). */
    virtual void checkInvariants() const {}
};

/**
 * Machine-wide coherence backend: a factory for per-node engines plus
 * whatever shared structure the model needs (the snooping bus). Owned
 * by the Machine, constructed before and destroyed after the nodes.
 */
class CoherenceBackend
{
  public:
    virtual ~CoherenceBackend() = default;

    virtual MachineModel model() const = 0;

    /** A human-readable protocol label for run records. */
    virtual std::string protocolName() const = 0;

    /** Build node @p id's coherence engine (called from Node's ctor). */
    virtual std::unique_ptr<NodeCoherence> makeNode(Node &node) = 0;

    /** Attach/detach machine-level audit hooks (bus transactions). */
    virtual void attachAuditor(CoherenceAuditor *) {}

    /**
     * Model-level quiescence checks after a run drains (the bus must
     * be idle, no MSHR outstanding). Violations are reported through
     * @p a when non-null, else panic.
     */
    virtual void auditQuiescent(CoherenceAuditor *) {}

    /** Total protocol transactions carried (RunRecord "messages"). */
    virtual std::uint64_t trafficMessages() const = 0;
};

/** Build the backend selected by @p cfg (machine.cc's constructor). */
std::unique_ptr<CoherenceBackend>
makeCoherenceBackend(Machine &m, const MachineConfig &cfg);

} // namespace swex

#endif // SWEX_MACHINE_COHERENCE_HH
