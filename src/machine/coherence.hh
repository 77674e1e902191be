/**
 * @file
 * The coherence-backend seam and the one processor-side cache
 * controller. The Machine owns one CoherenceBackend (the machine
 * model: home directories over the point-to-point mesh, or a
 * split-transaction snooping bus), and every Node owns one
 * NodeCoherence built by that backend.
 *
 * NodeCoherence is the processor side of a node's cache, written once
 * for both models: the hit path, instruction fetch, op application,
 * fill-with-writeback, completion scheduling, and the local
 * invalidate/downgrade the home side uses. A model supplies only how
 * a miss starts and how a dirty eviction is written back. The
 * directory model (directory_backend.hh) sends a request message to
 * the block's home and a Writeback message, and adds the node's home
 * directory; the snooping model (snoop.hh) queues a bus transaction,
 * and writes memory under a queued writeback transaction.
 */

#ifndef SWEX_MACHINE_COHERENCE_HH
#define SWEX_MACHINE_COHERENCE_HH

#include <memory>
#include <string>

#include "base/stats.hh"
#include "base/types.hh"
#include "core/node_services.hh"
#include "machine/processor.hh"
#include "mem/cache.hh"
#include "sim/event.hh"

namespace swex
{

class CoherenceAuditor;
class HomeController;
class Machine;
struct MachineConfig;
struct Message;
class Node;

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

// Cache-side timing, shared by both machine models.
constexpr unsigned cacheBytes = 64 * 1024;
constexpr Cycles hitLatency = 1;
constexpr Cycles victimSwapLatency = 2;    ///< extra cycles on a victim hit
constexpr Cycles fillLatency = 2;          ///< grant arrival to resume
constexpr Cycles instrMissLatency = 10;    ///< ifetch fill from local memory

/**
 * A node's processor-side cache controller. Owns the node's cache,
 * the single-entry MSHR, and the completion event; services the
 * processor's memory operations and instruction fetches. A machine
 * model derives from it and supplies startMiss() and writeback().
 */
class NodeCoherence
{
  public:
    /** @param victim_entries victim-cache size (0 disables it) */
    NodeCoherence(Node &node, unsigned victim_entries);
    virtual ~NodeCoherence() = default;

    NodeCoherence(const NodeCoherence &) = delete;
    NodeCoherence &operator=(const NodeCoherence &) = delete;

    // ---- processor side ---------------------------------------------
    /** Issue one processor memory operation (one outstanding). */
    void issue(MemOpType type, Addr addr, Word operand);

    /** Charge one instruction-block fetch; returns stall cycles. */
    Cycles instrTouch(Addr block_addr);

    // ---- node services ----------------------------------------------
    /** Remove the local copy (the home side's local flush). */
    RemovalResult
    invalidateLocal(Addr block_addr)
    {
        return _cache.remove(block_addr);
    }

    /** Downgrade the local copy (the home side's local FetchS). */
    RemovalResult
    downgradeLocal(Addr block_addr)
    {
        return _cache.downgrade(block_addr);
    }

    /**
     * Route an arriving network message. The default panics: a model
     * without a network (the bus) reaches its peers through the bus.
     */
    virtual void dispatchRx(const Message &msg);

    /**
     * Give the model first claim on an outgoing message (the directory
     * applies local grants synchronously); return true when the
     * message was fully handled. The default panics, as above.
     */
    virtual bool interceptSend(const Message &msg, Cycles delay);

    // ---- inspection ---------------------------------------------------
    /** The node's cache (debug reads, image hashing, layout). */
    Cache &cache() { return _cache; }
    const Cache &cache() const { return _cache; }

    /**
     * The node's home directory, or null on models without one.
     * Traps, audit hooks, audit views and directory invariants reach
     * the home through it.
     */
    virtual HomeController *home() { return nullptr; }

    const HomeController *
    home() const
    {
        return const_cast<NodeCoherence *>(this)->home();
    }

    /** A miss is outstanding (quiescence checks). */
    bool missOutstanding() const { return mshr.valid; }

    stats::Group statsGroup;
    stats::Scalar loads;    ///< load operations
    stats::Scalar stores;   ///< store operations
    stats::Scalar atomics;  ///< atomic operations
    // Each model's constructor registers missLatency after the
    // model's own counters, so the "cachectrl" group reads loads,
    // stores, atomics, the model's counters, then missLatency.
    stats::Distribution missLatency;  ///< miss issue-to-complete cycles

  protected:
    /** The single outstanding miss. */
    struct Mshr
    {
        bool valid = false;
        MemOpType type = MemOpType::Load;
        Addr addr = 0;        ///< full word address
        Word operand = 0;
        Tick issued = 0;
    };

    /** Start serving the miss just placed in the MSHR. */
    virtual void startMiss() = 0;

    /** Write back @p ev, a dirty line the cache displaced. */
    virtual void writeback(const Eviction &ev) = 0;

    /** Install a block, writing back a dirty line it displaces. */
    void
    fill(Addr block_addr, LineState state, const DataBlock &data)
    {
        Eviction ev = _cache.fill(block_addr, state, data);
        if (ev.valid && ev.dirty)
            writeback(ev);
    }

    /**
     * Perform a store or atomic on @p line and return the op's result
     * (0 for a store, the old word for an atomic). Takes the op
     * explicitly so the hit path works without an MSHR.
     */
    static Word applyOp(CacheLine &line, MemOpType type, Addr addr,
                        Word operand);

    /** Sample the MSHR's miss latency, free it, and resume the
     *  processor with @p value after @p delay. */
    void finishMiss(Word value, Cycles delay);

    Node &_node;
    Mshr mshr;

  private:
    /** Resume the processor with @p value after @p delay. */
    void complete(Word value, Cycles delay);
    void resume();

    Cache _cache;
    /** The completing op's result. The MSHR admits one operation at a
     *  time, so one completion event suffices. */
    Word resumeValue = 0;
    MemberEvent<&NodeCoherence::resume> completeEvent{
        *this, EventPrio::Processor};
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

    /** A human-readable protocol label for run records. */
    virtual std::string protocolName() const = 0;

    /** Build node @p id's coherence engine (called from Node's ctor). */
    virtual std::unique_ptr<NodeCoherence> makeNode(Node &node) = 0;

    /** Attach/detach machine-level audit hooks (bus transactions). */
    virtual void attachAuditor(CoherenceAuditor *) {}

    /**
     * Model-level quiescence checks after a run drains (the bus must
     * be idle, no MSHR outstanding), reported to @p a.
     */
    virtual void auditQuiescent(CoherenceAuditor &) const {}

    /**
     * What a run abandoned at its deadline left stuck, one line per
     * item and capped (a directory's transactions in transient
     * states, the bus's queued transactions); empty when nothing is.
     */
    virtual std::string stallSummary() const = 0;

    /** Total protocol transactions carried (RunRecord "messages"). */
    virtual std::uint64_t trafficMessages() const = 0;
};

/** Build the backend selected by @p cfg (machine.cc's constructor). */
std::unique_ptr<CoherenceBackend>
makeCoherenceBackend(Machine &m, const MachineConfig &cfg);

} // namespace swex

#endif // SWEX_MACHINE_COHERENCE_HH
