#include "net/delivery.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"
#include "net/network.hh"

namespace swex
{

DeliveryLayer::DeliveryLayer(MeshNetwork &network,
                             stats::Group *statsParent)
    : statsGroup(statsParent, "delivery"),
      sent(&statsGroup, "sent"),
      delivered(&statsGroup, "delivered"),
      dropsInjected(&statsGroup, "dropsInjected"),
      dupsInjected(&statsGroup, "dupsInjected"),
      blackouts(&statsGroup, "blackouts"),
      retransmits(&statsGroup, "retransmits"),
      dupSuppressed(&statsGroup, "dupSuppressed"),
      reorderHeld(&statsGroup, "reorderHeld"),
      acksSent(&statsGroup, "acksSent"),
      acksDropped(&statsGroup, "acksDropped"),
      net(network), injector(network.config.faults),
      _channels(static_cast<std::size_t>(network.numNodes) *
                static_cast<std::size_t>(network.numNodes))
{
}

DeliveryLayer::~DeliveryLayer() = default;

DeliveryLayer::Channel &
DeliveryLayer::channel(NodeId src, NodeId dst)
{
    std::unique_ptr<Channel> &slot =
        _channels[static_cast<std::size_t>(src) *
                      static_cast<std::size_t>(net.numNodes) +
                  static_cast<std::size_t>(dst)];
    if (!slot) {
        slot = std::make_unique<Channel>();
        slot->src = src;
        slot->dst = dst;
        Channel *raw = slot.get();
        slot->retransmitEvent.setCallback(
            [this, raw] { onRetransmitTimer(*raw); });
    }
    return *slot;
}

void
DeliveryLayer::send(Message msg)
{
    Channel &ch = channel(msg.src, msg.dst);
    msg.dseq = ch.nextSend++;
    ch.unacked.emplace(msg.dseq, msg);
    ch.attempts.emplace(msg.dseq, 1u);
    ++sent;

    // The injected message's flits were already counted by
    // MeshNetwork::send; only extra wire copies charge more below.
    transmitCopy(msg, /*charge_flits=*/false);

    if (!ch.retransmitEvent.scheduled()) {
        net.eventq.scheduleIn(ch.retransmitEvent, retransmitTimeout);
    }
}

void
DeliveryLayer::transmitCopy(const Message &msg, bool charge_flits)
{
    if (charge_flits)
        net.flitCount += msg.flits();

    // The transmit serializer is charged whether or not the copy
    // survives: the flits left the port either way.
    Tick now = net.eventq.curTick();
    Tick tx_done = net.serialize(msg);

    FaultRoll fault = injector.roll();
    if (fault.drop) {
        ++dropsInjected;
        return;
    }
    if (fault.extraDelay > 0)
        ++blackouts;

    Cycles base = net.wireLatency(msg.src, msg.dst) + fault.extraDelay;
    int copies = fault.duplicate ? 2 : 1;
    if (fault.duplicate)
        ++dupsInjected;
    for (int c = 0; c < copies; ++c) {
        // Each copy draws its own jitter, so duplicates can overtake
        // the original (the adversarial case duplicate suppression
        // must survive).
        Tick arrive = tx_done + base + net.jitterFor();
        PooledMsgEvent &ev = net._msgPool.acquire(
            this, &DeliveryLayer::wireArriveHandler,
            EventPrio::Network);
        ev.msg = msg;
        net.eventq.schedule(ev, arrive);
        net.transitLatency.sample(static_cast<double>(arrive - now));
    }
}

void
DeliveryLayer::wireArriveHandler(void *ctx, Message &msg)
{
    static_cast<DeliveryLayer *>(ctx)->wireArrive(msg);
}

void
DeliveryLayer::wireArrive(const Message &msg)
{
    Channel &ch = channel(msg.src, msg.dst);

    if (msg.dseq < ch.expected || ch.reorder.count(msg.dseq) != 0) {
        ++dupSuppressed;
        sendAck(ch);   // re-ack so the sender stops retransmitting
        return;
    }

    if (msg.dseq == ch.expected) {
        ++ch.expected;
        ++delivered;
        net.deliver(msg);
        // Release every consecutive arrival parked behind the gap
        // this message just filled, in sequence order.
        while (!ch.reorder.empty() &&
               ch.reorder.begin()->first == ch.expected) {
            Message next = ch.reorder.begin()->second;
            ch.reorder.erase(ch.reorder.begin());
            ++ch.expected;
            ++delivered;
            net.deliver(next);
        }
    } else {
        ch.reorder.emplace(msg.dseq, msg);
        ++reorderHeld;
    }
    sendAck(ch);
}

void
DeliveryLayer::sendAck(Channel &ch)
{
    ++acksSent;
    // Acks ride the same faulty wire (drop only; duplicating or
    // delaying a cumulative ack is indistinguishable from reordering
    // it, which is already harmless).
    FaultRoll fault = injector.roll();
    if (fault.drop) {
        ++acksDropped;
        return;
    }
    std::uint32_t up_to = ch.expected;
    Cycles latency = net.wireLatency(ch.dst, ch.src) + fault.extraDelay +
                     net.jitterFor();
    Channel *raw = &ch;
    net.eventq.scheduleIn(latency,
                          [this, raw, up_to] { onAck(*raw, up_to); },
                          EventPrio::Network);
}

void
DeliveryLayer::onAck(Channel &ch, std::uint32_t up_to)
{
    while (!ch.unacked.empty() && ch.unacked.begin()->first < up_to) {
        ch.attempts.erase(ch.unacked.begin()->first);
        ch.unacked.erase(ch.unacked.begin());
    }
    if (ch.unacked.empty() && ch.retransmitEvent.scheduled())
        net.eventq.deschedule(ch.retransmitEvent);
}

void
DeliveryLayer::onRetransmitTimer(Channel &ch)
{
    for (const auto &[seq, msg] : ch.unacked) {
        unsigned &tries = ch.attempts[seq];
        ++tries;
        ch.maxAttempts = std::max(ch.maxAttempts, tries);
        _maxAttempts = std::max(_maxAttempts, tries);
        ++retransmits;
        transmitCopy(msg, /*charge_flits=*/true);
    }
    if (!ch.unacked.empty()) {
        net.eventq.scheduleIn(ch.retransmitEvent, retransmitTimeout);
    }
}

void
DeliveryLayer::checkQuiescent(const DeliveryViolationFn &fn) const
{
    for (const auto &chp : _channels) {
        if (!chp)
            continue;
        const Channel &ch = *chp;
        if (!ch.unacked.empty()) {
            fn(ch.src, ch.dst,
               strfmt("%zu messages unacknowledged at quiescence "
                      "(first dseq %u)",
                      ch.unacked.size(), ch.unacked.begin()->first));
        }
        if (!ch.reorder.empty()) {
            fn(ch.src, ch.dst,
               strfmt("%zu arrivals held behind a sequence gap at "
                      "quiescence (receiver expects dseq %u)",
                      ch.reorder.size(), ch.expected));
        }
        if (ch.nextSend != ch.expected) {
            fn(ch.src, ch.dst,
               strfmt("sequence gap at quiescence: sender assigned "
                      "%u, receiver delivered %u",
                      ch.nextSend, ch.expected));
        }
        if (ch.maxAttempts > retransmitBound) {
            fn(ch.src, ch.dst,
               strfmt("a message needed %u transmissions; the "
                      "retransmit bound is %u",
                      ch.maxAttempts, retransmitBound));
        }
    }
}

} // namespace swex
