/**
 * @file
 * The CoherenceAuditor: an observation-only cross-checker of global
 * protocol invariants, attached to every home controller through the
 * ProtocolAuditHook interface. At every directory transition it
 * validates the per-entry bookkeeping the state machine relies on
 * (single pending writer, ack counter equal to the invalidations
 * actually outstanding, overflow/broadcast/local annotations legal for
 * the protocol); at quiescence it additionally proves the cross-node
 * properties that are only meaningful with no messages in flight
 * (every transaction drained, at most one dirty copy, every cached
 * reader covered by the directory pointers or the software extension).
 *
 * The auditor never charges simulated cycles and never mutates
 * protocol state, so an attached auditor cannot change results or
 * timing; it exists to turn silent bookkeeping corruption into a
 * report naming the home, block, and violated invariant.
 */

#ifndef SWEX_AUDIT_AUDITOR_HH
#define SWEX_AUDIT_AUDITOR_HH

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/types.hh"
#include "core/audit_hooks.hh"

namespace swex
{

class Cache;
struct DirEntry;

/** One detected invariant violation. */
struct AuditViolation
{
    NodeId home = invalidNode;   ///< home node of the block
    Addr block = 0;              ///< block address
    std::string what;            ///< which invariant, and how

    std::string describe() const;
};

/** The auditor's read-only view of one node. */
struct AuditNodeView
{
    NodeId id = invalidNode;
    /** Directory home controller; null on snooping machine models. */
    const HomeController *home = nullptr;
    const Cache *cache = nullptr;   ///< may be null (unit harnesses)
};

class CoherenceAuditor : public ProtocolAuditHook
{
  public:
    enum class Mode
    {
        Panic,     ///< first violation panics with full context
        Collect,   ///< violations are recorded for the caller
    };

    explicit CoherenceAuditor(Mode mode = Mode::Panic) : _mode(mode) {}

    /** Register a node to audit (call once per node, before the run). */
    void addNode(const AuditNodeView &view);

    /** Map a block address to its home node (needed for cache checks;
     *  Machine::attachAuditor supplies it). */
    void setHomeOf(std::function<NodeId(Addr)> fn);

    // ---- ProtocolAuditHook -----------------------------------------
    void onHomeTransition(const HomeController &hc, Addr block) override;
    void onInvSent(NodeId home, Addr block) override;
    void onInvAckCounted(NodeId home, Addr block) override;

    // ---- snooping machine model ------------------------------------

    /**
     * One bus transaction for @p block completed its snoop phase.
     * Cross-checks the block's copies across every registered cache:
     * at most one dirty (Modified/Owned) copy, Modified/Exclusive are
     * sole copies, at most one Forward copy, and all valid copies
     * hold identical data.
     */
    void onBusTransaction(Addr block);

    /** A model-level invariant failed (bus not idle, MSHR leaked). */
    void modelViolation(NodeId node, Addr block,
                        const std::string &what);

    /** Extra stallSummary() lines from the machine model (the bus's
     *  pending-transaction queue); set by SnoopBackend. */
    void setModelStallSummary(std::function<std::string()> fn);

    /**
     * Full cross-node audit: terminal directory states only, no traps
     * queued, no deferred requests, no outstanding invalidations, at
     * most one dirty copy per block, and every cached copy covered by
     * what the directory (hardware pointers, local bit, full map,
     * broadcast bit, or software extension) knows. Only valid when no
     * protocol messages are in flight; Machine::run() calls it after
     * draining the event queue.
     */
    void checkQuiescent();

    /**
     * A delivery-layer invariant failed at quiescence (sequence gap,
     * unacknowledged messages, retransmit bound exceeded). Reported
     * by Machine::run() via MeshNetwork::checkDeliveryQuiescent; the
     * channel's source node stands in as the "home" of the violation.
     */
    void deliveryViolation(NodeId src, NodeId dst,
                           const std::string &what);

    /**
     * Human-readable summary of every directory transaction stuck in
     * a transient state, for diagnosing a run that hit its deadline:
     * home, block, state, acks outstanding, pending requester; capped
     * at a few lines per home. Empty when nothing is stalled.
     */
    std::string stallSummary() const;

    /** Violations recorded so far (Collect mode; capped storage). */
    const std::vector<AuditViolation> &violations() const
    {
        return _violations;
    }

    /** Total violations seen (may exceed violations().size()). */
    std::uint64_t violationCount() const { return _violationCount; }

    /** Directory transitions checked so far. */
    std::uint64_t transitionsChecked() const { return _transitions; }

  private:
    static constexpr std::size_t maxStoredViolations = 64;

    void report(NodeId home, Addr block, std::string what);
    void checkEntry(const HomeController &hc, Addr block,
                    const DirEntry &e, bool quiescent);
    void checkSnoopBlock(Addr block);
    std::int64_t outstandingInvs(Addr block) const;

    Mode _mode;
    std::vector<AuditNodeView> _nodes;
    std::function<NodeId(Addr)> _homeOf;
    std::function<std::string()> _modelStallSummary;

    /** Invalidations sent minus acknowledgments counted, per block.
     *  (A block has exactly one home, so the block address keys it.) */
    std::unordered_map<Addr, std::int64_t> _outstanding;

    std::vector<AuditViolation> _violations;
    std::uint64_t _violationCount = 0;
    std::uint64_t _transitions = 0;
};

} // namespace swex

#endif // SWEX_AUDIT_AUDITOR_HH
