/**
 * @file
 * The snooping machine model: every node's cache controller sits on
 * one split-transaction shared bus instead of the point-to-point
 * mesh. A bus transaction is serviced atomically at its serialization
 * point — the snoop phase — where every peer cache observes it and
 * transitions in node-id order, so runs are deterministic by
 * construction. Timing uses a free-at model: each transaction
 * occupies the bus for an address phase plus an optional data/update
 * phase, and the requesting processor resumes after the supplier
 * (peer cache or memory) latency on top of the occupancy.
 *
 * Protocols: MESI, MOESI, MESIF (invalidate-based) and Dragon
 * (update-based). Dragon's E/Sc/Sm/M map onto LineState
 * Exclusive/Shared/Owned/Modified; atomics under Dragon are modeled
 * as invalidating read-modify-writes (BusRdX) rather than update
 * sequences. Dirty evictions write memory immediately and queue a
 * writeback transaction for bus occupancy and stats only, so no data
 * is ever in flight on the bus.
 */

#ifndef SWEX_MACHINE_SNOOP_HH
#define SWEX_MACHINE_SNOOP_HH

#include <deque>
#include <vector>

#include "base/stats.hh"
#include "machine/coherence.hh"
#include "sim/event.hh"

namespace swex
{

// Shared-bus timing.
constexpr Cycles busAddrCycles = 2;   ///< address/snoop phase occupancy
constexpr Cycles busDataCycles = 4;   ///< one block transfer on the data bus
constexpr Cycles busUpdCycles = 1;    ///< one word broadcast (Dragon BusUpd)
constexpr Cycles c2cLatency = 2;      ///< owner-cache turnaround before supply

class SnoopBackend;

/** One queued bus request. Demand requests carry their context in the
 *  owning controller's MSHR; writebacks are occupancy/stats only. */
struct BusTxn
{
    NodeId node = invalidNode;
    bool writeback = false;
    Addr blockAddr = 0;
    std::uint64_t seq = 0;   ///< arrival order (FIFO discipline)
};

/** One node's snooping cache controller: the shared processor side,
 *  whose misses become queued bus transactions. */
class SnoopNodeCoherence final : public NodeCoherence
{
  public:
    SnoopNodeCoherence(Node &node, SnoopBackend &backend,
                       const MachineConfig &mc);

    /**
     * Service this node's transaction at its bus serialization point:
     * snoop every peer, transition states, fill the cache, apply the
     * operation, and schedule the processor's resume.
     * @return bus occupancy in cycles
     */
    Cycles serviceAtBus(const BusTxn &t);

    stats::Scalar busRequests;       ///< demand transactions issued

  private:
    /** The miss becomes a queued demand transaction. */
    void startMiss() override;
    /** Memory is written now (no data rides the queued transaction);
     *  a writeback transaction occupies the bus later. */
    void writeback(const Eviction &ev) override;

    SnoopBackend &_backend;
};

/** The split-transaction shared-bus machine model. */
class SnoopBackend final : public CoherenceBackend
{
  public:
    SnoopBackend(Machine &m);

    // ---- CoherenceBackend -------------------------------------------
    std::string protocolName() const override;
    std::unique_ptr<NodeCoherence> makeNode(Node &node) override;
    void attachAuditor(CoherenceAuditor *a) override;
    void auditQuiescent(CoherenceAuditor &a) const override;
    std::string stallSummary() const override;
    std::uint64_t trafficMessages() const override;

    // ---- bus --------------------------------------------------------
    /** Queue a demand transaction for @p node (context in its MSHR). */
    void requestBus(NodeId node, Addr block_addr);

    /** Queue a writeback transaction (occupancy/stats only; memory
     *  was already written at eviction time). */
    void requestWriteback(NodeId node, Addr block_addr);

    /** Visit every controller except @p self, in node-id order. */
    template <typename Fn>
    void
    forEachPeer(NodeId self, Fn &&fn)
    {
        for (std::size_t i = 0; i < _ctrls.size(); ++i) {
            if (_ctrls[i] && static_cast<NodeId>(i) != self)
                fn(*_ctrls[i]);
        }
    }

    /** Memory access by global address (the segment's backing DRAM). */
    const DataBlock &memRead(Addr block_addr) const;
    void memWrite(Addr block_addr, const DataBlock &data);

    SnoopProtocol protocol() const { return _proto; }

    // Bus statistics: the protocol-differentiation surface (MESI's
    // readExcl/upgrades/invalidations vs Dragon's updates/wordUpdates).
    stats::Group statsGroup;
    stats::Scalar transactions;     ///< bus transactions serviced
    stats::Scalar reads;            ///< BusRd (demand read misses)
    stats::Scalar readExcl;         ///< BusRdX (write/atomic misses)
    stats::Scalar upgrades;         ///< BusUpgr (write hit on shared)
    stats::Scalar updates;          ///< BusUpd word broadcasts (Dragon)
    stats::Scalar writebacks;       ///< dirty-eviction transactions
    stats::Scalar invalidations;    ///< peer copies invalidated
    stats::Scalar wordUpdates;      ///< peer copies updated in place
    stats::Scalar cacheSupplies;    ///< data supplied cache-to-cache
    stats::Scalar memSupplies;      ///< data supplied by memory

  private:
    void scheduleArb();
    void arbitrate();
    std::size_t pickNext() const;

    Machine &_m;
    SnoopProtocol _proto;
    BusArbitration _arbitration;
    std::vector<SnoopNodeCoherence *> _ctrls;   ///< indexed by node id
    CoherenceAuditor *_auditor = nullptr;

    std::deque<BusTxn> _queue;
    Tick _freeAt = 0;
    bool _inService = false;
    std::uint64_t _nextSeq = 0;
    NodeId _lastGranted = invalidNode;
    MemberEvent<&SnoopBackend::arbitrate> _arbEvent{
        *this, EventPrio::Controller};
};

} // namespace swex

#endif // SWEX_MACHINE_SNOOP_HH
