/**
 * @file
 * Recoverable delivery layer over the faulty mesh. When fault
 * injection is active, every non-loopback protocol message passes
 * through a per-(src, dst) channel that assigns sequence numbers on
 * the sending side, suppresses duplicates and reorders arrivals on
 * the receiving side, and retransmits unacknowledged messages on a
 * timer -- so the protocol layer above still observes exactly-once,
 * in-order delivery whatever the wire does (Rainbow-style protocol
 * extensions multiply transient states; the delivery discipline is
 * the testable layer that keeps them reachable but survivable).
 *
 * The layer is only constructed when FaultConfig::enabled(); with
 * faults off the mesh's clean path is untouched and the delivery
 * machinery costs zero cycles, zero events, and zero statistics
 * nodes, keeping quiet-run cycle counts bit-identical.
 *
 * Acknowledgments are cumulative ("everything below N arrived") and
 * are modeled as delivery-layer control events, not protocol
 * messages: they traverse the same wire latency and are subject to
 * the same drop faults, but never enter the CMMU receive queues. An
 * ack rides a pooled message event as (src, dst, dseq = N). A lost
 * ack is recovered by the next retransmission's re-ack.
 */

#ifndef SWEX_NET_DELIVERY_HH
#define SWEX_NET_DELIVERY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "net/fault.hh"
#include "net/message.hh"
#include "sim/event.hh"

namespace swex
{

class MeshNetwork;

/** Sender-side retransmission timer (cycles without a cumulative
 *  acknowledgment before every unacked message is resent). */
constexpr Cycles retransmitTimeout = 256;

/** Transmissions per message the delivery layer considers sane;
 *  exceeding it is reported as a delivery invariant violation. */
constexpr unsigned retransmitBound = 64;

/** Callback reporting one delivery invariant violation at quiescence. */
using DeliveryViolationFn =
    std::function<void(NodeId src, NodeId dst, const std::string &what)>;

class DeliveryLayer
{
  public:
    DeliveryLayer(MeshNetwork &net, stats::Group *statsParent);
    ~DeliveryLayer();

    DeliveryLayer(const DeliveryLayer &) = delete;
    DeliveryLayer &operator=(const DeliveryLayer &) = delete;

    /** Sender entry point: sequence, retain, and transmit @p msg. */
    void send(Message msg);

    /** A wire copy arrived at its destination node. */
    void wireArrive(const Message &msg);

    /**
     * Delivery invariants, valid only at quiescence: every channel
     * fully acknowledged, no arrivals held behind a sequence gap,
     * sender and receiver sequence counters equal, and no message
     * ever needed more than retransmitBound transmissions. Invokes
     * @p fn once per violation, in deterministic channel order.
     */
    void checkQuiescent(const DeliveryViolationFn &fn) const;

    /** Highest transmission count any single message needed. */
    unsigned maxAttempts() const { return _maxAttempts; }

    // Statistics (child group "delivery" under the network).
    stats::Group statsGroup;
    stats::Scalar sent;           ///< protocol messages sequenced
    stats::Scalar delivered;      ///< released in-order to receivers
    stats::Scalar dropsInjected;  ///< transmissions lost on the wire
    stats::Scalar dupsInjected;   ///< duplicate copies injected
    stats::Scalar blackouts;      ///< transmissions held by a blackout
    stats::Scalar retransmits;    ///< timer-driven retransmissions
    stats::Scalar dupSuppressed;  ///< received copies discarded
    stats::Scalar reorderHeld;    ///< arrivals parked behind a gap
    stats::Scalar acksSent;       ///< cumulative acks issued
    stats::Scalar acksDropped;    ///< acks lost to the fault stream

  private:
    /** A sequenced message the receiver has not acknowledged yet. */
    struct Unacked
    {
        Message msg;
        unsigned attempts = 1;   ///< transmissions so far
    };

    /** One direction of one (src, dst) node pair. */
    struct Channel
    {
        NodeId src = invalidNode;
        NodeId dst = invalidNode;
        std::uint32_t nextSend = 0;  ///< sender: next seq to assign
        std::uint32_t expected = 0;  ///< receiver: next in-order seq
        /** Sender window: the unacknowledged messages in dseq order.
         *  Acks are cumulative, so it is always a contiguous run of
         *  dseqs ending at nextSend - 1. */
        std::vector<Unacked> unacked;
        /** Receiver window: early[k] holds the arrival with dseq
         *  expected + k, if it came. early[0] is always empty (that
         *  arrival is released at once) and, unless the window is
         *  empty, its last slot is filled. */
        std::vector<std::optional<Message>> early;
        unsigned maxAttempts = 1;    ///< channel high-water
        LambdaEvent retransmitEvent{
            {}, EventPrio::Network};
    };

    /** Channels are carved from chunks of this many, in first-use
     *  order, so a run pays for the channels it uses. */
    static constexpr unsigned channelChunk = 64;

    static void wireArriveHandler(void *ctx, Message &msg);
    static void ackArriveHandler(void *ctx, Message &ack);

    Channel &channel(NodeId src, NodeId dst);
    void transmitCopy(const Message &msg, bool charge_flits);
    void sendAck(Channel &ch);
    void onAck(Channel &ch, std::uint32_t up_to);
    void onRetransmitTimer(Channel &ch);

    MeshNetwork &net;
    FaultInjector injector;
    unsigned _maxAttempts = 1;

    /** Indexed by src * numNodes + dst, null until first use: index
     *  order is the deterministic order quiescent checks report in.
     *  A channel never moves (its retransmit event may be pending). */
    std::vector<Channel *> _channels;
    std::vector<std::unique_ptr<Channel[]>> _chunks;
    unsigned _chunkUsed = channelChunk;   ///< taken from the last chunk
};

} // namespace swex

#endif // SWEX_NET_DELIVERY_HH
