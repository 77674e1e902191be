/**
 * @file
 * The memory-side of the CMMU: for every block homed at this node, it
 * runs the hardware portion of the coherence protocol and, when the
 * hardware cannot handle an event (directory pointer overflow,
 * software-counted acknowledgments, the software-only directory),
 * interrupts the local processor so the protocol extension software
 * can take over.
 *
 * The hardware state machine is shared by the whole protocol spectrum;
 * ProtocolConfig decides which transitions are legal in hardware and
 * which trap. The software handlers are written against the
 * CoherenceInterface and charged per the CostModel.
 */

#ifndef SWEX_CORE_HOME_CONTROLLER_HH
#define SWEX_CORE_HOME_CONTROLLER_HH

#include <cstddef>
#include <deque>
#include <functional>
#include <unordered_map>

#include "base/stats.hh"
#include "core/audit_hooks.hh"
#include "core/coherence_interface.hh"
#include "core/cost_model.hh"
#include "core/directory.hh"
#include "core/ext_directory.hh"
#include "core/node_services.hh"
#include "core/protocol.hh"
#include "core/sharing_tracker.hh"
#include "net/message.hh"

namespace swex
{

constexpr Cycles hwCtrlLatency = 2;    ///< hw-synthesized control replies

/** Behavior knobs for the home-side controller. */
struct HomeConfig
{
    ProtocolConfig protocol;
    HandlerProfile profile = HandlerProfile::FlexibleC;
    bool parallelInv = false;    ///< Section 7: pipelined sw invals

    /** Auditor-validation bug injection (see ProtocolMutation).
     *  Per-controller state, so concurrent machines never share a
     *  mutation. */
    ProtocolMutation mutation = ProtocolMutation::None;
};

/** The per-node home directory controller. */
class HomeController
{
  public:
    HomeController(NodeId home, int num_nodes, const HomeConfig &cfg,
                   NodeServices &services, stats::Group *stats_parent);

    /** Hardware processing of one arriving protocol message. */
    void handleMessage(const Message &msg);

    /**
     * Execute the software handler for a queued trap (called by the
     * processor when it takes the interrupt).
     * @return the number of cycles the handler occupied.
     */
    Cycles runTrap(const TrapItem &item);

    /** Optional exact worker-set tracker (shared, machine-wide). */
    void setTracker(SharingTracker *t) { tracker = t; }

    /** Optional protocol auditor (observation-only, machine-wide). */
    void setAuditHook(ProtocolAuditHook *h) { audit = h; }

    /** Requests currently parked in the CMMU input queue. */
    std::size_t
    deferredCount() const
    {
        std::size_t n = 0;
        for (const auto &[addr, q] : deferred)
            n += q.size();
        return n;
    }

    /**
     * Hook for custom protocol software (Section 7). Called before
     * the built-in handler; return true to claim the trap.
     */
    using CustomHandler = std::function<bool(CoherenceInterface &)>;
    void setCustomHandler(CustomHandler h) { custom = std::move(h); }

    NodeId homeNode() const { return home; }
    int numNodes() const { return nodes; }
    const HomeConfig &config() const { return cfg; }
    NodeServices &services() { return node; }

    // --------------------------------------------------------------
    // Statistics (declared first: members below register into them)
    // --------------------------------------------------------------
    stats::Group statsGroup;
    stats::Scalar hwHandled;        ///< messages fully handled in hw
    stats::Scalar trapsRaised;      ///< software handler invocations
    stats::Scalar busySent;         ///< busy replies (hw + sw)
    stats::Scalar hwInvsSent;       ///< invalidations sent by hardware
    stats::Scalar swInvsSent;       ///< invalidations sent by software
    stats::Scalar handlerCycles;    ///< total cycles spent in handlers
    stats::Distribution readHandlerCycles;   ///< Table 1 measurement
    stats::Distribution writeHandlerCycles;  ///< Table 1 measurement
    stats::Distribution ackHandlerCycles;    ///< ack handler latency
    stats::Scalar trapsByKind[static_cast<unsigned>(
        TrapKind::NumKinds)];               ///< traps, per TrapKind

    /** Hardware directory (public: tests and the interface use it). */
    Directory dir;

    /** Software-extended directory. */
    ExtDirectory ext;

  private:
    friend class CoherenceInterface;

    /**
     * Defer a request that arrived while a trap for its block is
     * queued: the CMMU holds it in its internal input queue and
     * replays it once the handler completes (Section 4.1's
     * atomicity guarantee), instead of nacking the requester.
     */
    void deferRequest(const Message &msg);
    void replayDeferred(Addr block_addr);

    // Hardware state machine
    void onReadReq(const Message &msg);
    void onWriteReq(const Message &msg);
    void onInvAck(const Message &msg);
    void onWriteback(const Message &msg);
    void onFetchReply(const Message &msg);

    /** Record a read grant in hardware; true if it fit, false if the
     *  pointers overflowed (caller must trap). */
    bool recordReaderHw(DirEntry &e, NodeId reader);

    /** Collect hardware-known sharers except @p exclude. */
    std::vector<NodeId> hwSharers(const DirEntry &e,
                                  NodeId exclude) const;

    void raise(TrapKind kind, const Message &msg);

    // Actions and transitions shared by the hardware and the protocol
    // software. Each takes the running handler's interface, or null
    // when the hardware acts: a handler charges its work to its
    // occupancy and sends at elapsed(), the hardware sends after its
    // fixed memory or control latency. Only the hardware counts
    // hwHandled and replays deferred requests.

    /** Build and send a home-side message about block @p a: every
     *  message the home sends is built here. */
    void send(CoherenceInterface *ci, MsgType type, Addr a, NodeId dst,
              std::uint8_t seq = 0, bool busy_for_write = false);

    /** Flush the home node's own cached copy (dirty data goes back
     *  to memory). */
    void flushLocal(CoherenceInterface *ci, Addr a);

    /** Make @p owner the block's exclusive owner and send it data. */
    void grantExclusive(CoherenceInterface *ci, DirEntry &e, Addr a,
                        NodeId owner);

    /** Recall an Exclusive block from its owner for @p req, or tell
     *  an owner that asks again to retry. */
    void recall(CoherenceInterface *ci, DirEntry &e, Addr a, NodeId req,
                bool is_write);

    /** An owner's answer to a recall: data completes it, a NACK
     *  fetches again, a superseded reply is dropped. */
    void fetchReply(CoherenceInterface *ci, DirEntry &e,
                    const Message &msg);

    /** An owner's writeback; it completes a recall in flight. */
    void writeback(CoherenceInterface *ci, DirEntry &e,
                   const Message &msg);

    /** Finish a recall: grant the writer, or share with the reader
     *  (recorded in hardware pointers, or in software when @p ci). */
    void completeFetch(CoherenceInterface *ci, DirEntry &e, Addr a);

    /** Invalidate @p targets (and the home's own copy if
     *  @p flush_local), then grant @p req at once if no acks are due,
     *  else wait for them. @p release_ext frees the block's extended
     *  entry first. */
    void invalidate(CoherenceInterface *ci, DirEntry &e, Addr a,
                    NodeId req, const std::vector<NodeId> &targets,
                    bool flush_local, bool release_ext);

    // Software handlers (built-in protocol extension software)
    void handleReadOverflow(CoherenceInterface &ci);
    void handleWriteOverflow(CoherenceInterface &ci);
    void handleWriteBroadcast(CoherenceInterface &ci);
    void handleLastAck(CoherenceInterface &ci);
    void handleEveryAck(CoherenceInterface &ci);
    void handleSwRequest(CoherenceInterface &ci);
    void handleSwBusy(CoherenceInterface &ci);

    void trackShared(Addr block_addr, NodeId n);
    void trackExclusive(Addr block_addr, NodeId n);

    NodeId home;
    int nodes;
    HomeConfig cfg;
    NodeServices &node;
    CostModel costs;
    SharingTracker *tracker = nullptr;
    ProtocolAuditHook *audit = nullptr;
    CustomHandler custom;

    /** Requests parked while their block has a trap queued. */
    std::unordered_map<Addr, std::deque<Message>> deferred;
};

} // namespace swex

#endif // SWEX_CORE_HOME_CONTROLLER_HH
