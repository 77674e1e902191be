/**
 * @file
 * 2-D mesh interconnect with dimension-ordered routing. Following the
 * paper (Section 3.2), contention is modeled at the per-node transmit
 * and receive queues of the CMMU; contention inside network switches
 * is not modeled. A packet therefore experiences: transmit-queue wait
 * + serialization at one flit per cycle + per-hop wire latency, and is
 * then handed to the destination's receiver (whose input queue models
 * the receive side).
 */

#ifndef SWEX_NET_NETWORK_HH
#define SWEX_NET_NETWORK_HH

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <vector>

#include "base/stats.hh"
#include "base/types.hh"
#include "net/delivery.hh"
#include "net/fault.hh"
#include "net/message.hh"
#include "net/message_pool.hh"
#include "sim/event_queue.hh"

namespace swex
{

/** Sink for messages arriving at a node (implemented by the CMMU). */
class MsgReceiver
{
  public:
    virtual ~MsgReceiver() = default;

    /** A message has fully arrived at this node. */
    virtual void receiveMessage(const Message &msg) = 0;
};

constexpr Cycles hopLatency = 1;      ///< wire/switch latency per hop
constexpr Cycles routerEntry = 2;     ///< fixed cost to enter/exit the mesh
constexpr Cycles loopback = 2;        ///< latency for src == dst messages

/** Configuration knobs for the mesh. */
struct NetworkConfig
{
    /**
     * Interleaving stressor: add a deterministic pseudo-random extra
     * delay in [0, jitterMax] to every message's delivery time (the
     * transmit serializer is not perturbed, so the port stays
     * work-conserving). Messages between the same pair of nodes can
     * then overtake each other, exercising protocol races that the
     * quiet mesh timing never produces. 0 disables the stressor.
     */
    Cycles jitterMax = 0;

    /** Seed for the jitter stream (runs replay exactly by seed). */
    std::uint64_t jitterSeed = 0;

    /**
     * Adversarial fault injection (drop/duplicate/blackout) plus the
     * recoverable delivery layer that hides it from the protocol.
     * All-zero rates keep the clean path byte-identical: the layer
     * is then never constructed.
     */
    FaultConfig faults;

    /**
     * Keep the last N delivered messages in a replayable trace ring
     * (dumpTrace). 0 disables tracing; the stress driver uses ~64.
     */
    unsigned traceDepth = 0;
};

/**
 * The mesh network. Nodes are laid out on a W x H grid with W chosen
 * as the largest power-of-two divisor <= sqrt(n) that tiles n.
 */
class MeshNetwork
{
  public:
    MeshNetwork(EventQueue &eq, int numNodes, NetworkConfig cfg,
                stats::Group *statsParent);

    /** Register the receiver for @p node. */
    void setReceiver(NodeId node, MsgReceiver *recv);

    /**
     * Inject a message. The transmit queue of msg.src serializes at
     * one flit per cycle; delivery is scheduled after transit.
     */
    void send(Message msg);

    /** Grid geometry. */
    int width() const { return _width; }
    int height() const { return _height; }

    /** Manhattan distance between two nodes. */
    unsigned hopCount(NodeId a, NodeId b) const;

    /** Wire time from @p a to @p b: mesh entry plus every hop. */
    Cycles
    wireLatency(NodeId a, NodeId b) const
    {
        return routerEntry + hopLatency * hopCount(a, b);
    }

    /**
     * Shared pool of message-carrying events; the nodes draw from it
     * too, so one free list serves all in-flight messages.
     */
    MessagePool &msgPool() { return _msgPool; }

    /**
     * Print the trace ring (oldest first) — the last traceDepth
     * messages delivered, with their delivery ticks. Used by the
     * stress driver to report a replayable failing interleaving.
     */
    void dumpTrace(std::ostream &os) const;

    /**
     * Delivery-layer invariants at quiescence (no-op when fault
     * injection is off): see DeliveryLayer::checkQuiescent.
     */
    void
    checkDeliveryQuiescent(const DeliveryViolationFn &fn) const
    {
        if (_delivery)
            _delivery->checkQuiescent(fn);
    }

    /** The delivery layer, or null when fault injection is off. */
    const DeliveryLayer *delivery() const { return _delivery.get(); }

    /** Statistics. */
    stats::Group statsGroup;
    stats::Scalar msgCount;              ///< messages injected
    stats::Scalar flitCount;             ///< flits injected
    stats::Distribution txQueueWait;     ///< cycles queued for the serializer
    stats::Distribution transitLatency;  ///< inject-to-deliver cycles

  private:
    friend class DeliveryLayer;   ///< drives the wire primitives

    struct TxPort
    {
        Tick freeAt = 0;        ///< when the serializer is next free
    };

    /** One delivered message remembered in the trace ring. */
    struct TraceEntry
    {
        Tick when = 0;
        Message msg;
    };

    void deliver(const Message &msg);
    static void deliverHandler(void *ctx, Message &msg);
    Cycles jitterFor();

    /**
     * Charge @p msg's flits to its source's transmit serializer (one
     * flit per cycle, behind any flits already queued there).
     * @return the tick its last flit leaves the port
     */
    Tick serialize(const Message &msg);

    EventQueue &eventq;
    NetworkConfig config;
    int numNodes;
    int _width;
    int _height;
    std::vector<MsgReceiver *> receivers;
    std::vector<TxPort> txPorts;
    MessagePool _msgPool;
    std::uint64_t _jitterCounter = 0;
    std::deque<TraceEntry> _trace;
    std::unique_ptr<DeliveryLayer> _delivery;   ///< null when faults off
};

} // namespace swex

#endif // SWEX_NET_NETWORK_HH
