/**
 * @file
 * The CoherenceAuditor: the one place a coherence invariant is
 * stated. Attached to every home controller through the
 * ProtocolAuditHook interface, it validates at every directory
 * transition the per-entry bookkeeping the state machine relies on
 * (single pending writer, ack counter equal to the invalidations
 * actually outstanding, overflow/broadcast/local annotations legal for
 * the protocol). Every completed run ends with its quiescent sweep,
 * audited or not, which proves the cross-node properties that are
 * only meaningful with no messages in flight: every transaction
 * drained, one writer per block, every copy holding the same data,
 * and every cached reader covered by the directory pointers or the
 * software extension.
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
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/types.hh"
#include "core/audit_hooks.hh"

namespace swex
{

class Cache;
struct CacheLine;
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

    /** Register a node to audit (once per node). */
    void addNode(const AuditNodeView &view);

    /** Map a block address to its home node (needed for cache checks;
     *  the Machine supplies it). */
    void setHomeOf(std::function<NodeId(Addr)> fn);

    // ---- ProtocolAuditHook -----------------------------------------
    void onHomeTransition(const HomeController &hc, Addr block) override;
    void onInvSent(NodeId home, Addr block) override;
    void onInvAckCounted(NodeId home, Addr block) override;

    // ---- snooping machine model ------------------------------------

    /**
     * One bus transaction for @p block completed its snoop phase:
     * the block's copies across every registered cache must obey the
     * per-block rules checkQuiescent() applies to every block.
     */
    void onBusTransaction(Addr block);

    /** A model-level invariant failed (bus not idle, MSHR leaked). */
    void modelViolation(NodeId node, Addr block,
                        const std::string &what);

    /**
     * The quiescent sweep every completed run ends with
     * (Machine::checkInvariants). Per directory entry: a terminal
     * state, no traps queued, no fetch or invalidation outstanding,
     * and no deferred requests at the home. Per block, over every
     * registered cache's data copies on either machine model: at most
     * one dirty copy, a Modified or Exclusive copy stands alone, at
     * most one Forward copy, and every copy holds the same data.
     * Where the block's home has a directory, its one Modified copy
     * is the recorded exclusive owner and every other copy is covered
     * by what the directory knows (hardware pointers, local bit, full
     * map, broadcast bit, or software extension). Only valid when no
     * protocol messages are in flight. A clean sweep reports nothing
     * and counts no transitions.
     */
    void checkQuiescent();

    /**
     * A delivery-layer invariant failed at quiescence (sequence gap,
     * unacknowledged messages, retransmit bound exceeded). Reported
     * by Machine::checkInvariants() via
     * MeshNetwork::checkDeliveryQuiescent; the channel's source node
     * stands in as the "home" of the violation.
     */
    void deliveryViolation(NodeId src, NodeId dst,
                           const std::string &what);

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

    /** One node's copy of a block's data (instruction lines excluded). */
    struct Copy
    {
        Addr block;
        NodeId node;
        const CacheLine *line;
    };

    void report(NodeId home, Addr block, std::string what);
    NodeId homeOf(Addr block) const;
    void checkEntry(const HomeController &hc, Addr block,
                    const DirEntry &e, bool quiescent);
    /** The per-block rules over one block's copies, in node order. */
    void checkCopies(NodeId home, std::span<const Copy> copies);
    /** The owner and coverage rules of @p hc's directory. */
    void checkCoverage(const HomeController &hc,
                       std::span<const Copy> copies);
    std::int64_t outstandingInvs(Addr block) const;

    Mode _mode;
    std::vector<AuditNodeView> _nodes;
    std::function<NodeId(Addr)> _homeOf;
    std::vector<Copy> _copies;   ///< scratch, reused by every check

    /** Invalidations sent minus acknowledgments counted, per block.
     *  (A block has exactly one home, so the block address keys it.) */
    std::unordered_map<Addr, std::int64_t> _outstanding;

    std::vector<AuditViolation> _violations;
    std::uint64_t _violationCount = 0;
    std::uint64_t _transitions = 0;
};

} // namespace swex

#endif // SWEX_AUDIT_AUDITOR_HH
