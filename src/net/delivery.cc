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
                    static_cast<std::size_t>(network.numNodes),
                nullptr)
{
}

DeliveryLayer::~DeliveryLayer() = default;

DeliveryLayer::Channel &
DeliveryLayer::channel(NodeId src, NodeId dst)
{
    Channel *&slot =
        _channels[static_cast<std::size_t>(src) *
                      static_cast<std::size_t>(net.numNodes) +
                  static_cast<std::size_t>(dst)];
    if (slot == nullptr) {
        if (_chunkUsed == channelChunk) {
            _chunks.push_back(std::make_unique<Channel[]>(channelChunk));
            _chunkUsed = 0;
        }
        Channel &ch = _chunks.back()[_chunkUsed++];
        ch.src = src;
        ch.dst = dst;
        ch.retransmitEvent.setCallback(
            [this, &ch] { onRetransmitTimer(ch); });
        slot = &ch;
    }
    return *slot;
}

void
DeliveryLayer::send(Message msg)
{
    Channel &ch = channel(msg.src, msg.dst);
    msg.dseq = ch.nextSend++;
    ch.unacked.push_back({msg, 1});
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
DeliveryLayer::ackArriveHandler(void *ctx, Message &ack)
{
    auto *self = static_cast<DeliveryLayer *>(ctx);
    self->onAck(self->channel(ack.src, ack.dst), ack.dseq);
}

void
DeliveryLayer::wireArrive(const Message &msg)
{
    Channel &ch = channel(msg.src, msg.dst);

    // This arrival's slot in the receiver window (read only when it
    // is not below the window).
    const std::uint32_t ahead = msg.dseq - ch.expected;
    if (msg.dseq < ch.expected ||
        (ahead < ch.early.size() && ch.early[ahead])) {
        ++dupSuppressed;
        sendAck(ch);   // re-ack so the sender stops retransmitting
        return;
    }

    if (ahead == 0) {
        ++ch.expected;
        ++delivered;
        net.deliver(msg);
        // Release every consecutive arrival parked behind the gap
        // this message just filled, in sequence order; each release
        // slides the window by one slot.
        if (!ch.early.empty())
            ch.early.erase(ch.early.begin());
        while (!ch.early.empty() && ch.early.front()) {
            Message next = *ch.early.front();
            ch.early.erase(ch.early.begin());
            ++ch.expected;
            ++delivered;
            net.deliver(next);
        }
    } else {
        if (ch.early.size() <= ahead)
            ch.early.resize(static_cast<std::size_t>(ahead) + 1);
        ch.early[ahead] = msg;
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
    Message ack;
    ack.src = ch.src;
    ack.dst = ch.dst;
    ack.dseq = ch.expected;
    Cycles latency = net.wireLatency(ch.dst, ch.src) + fault.extraDelay +
                     net.jitterFor();
    PooledMsgEvent &ev = net._msgPool.acquire(
        this, &DeliveryLayer::ackArriveHandler, EventPrio::Network);
    ev.msg = ack;
    net.eventq.scheduleIn(ev, latency);
}

void
DeliveryLayer::onAck(Channel &ch, std::uint32_t up_to)
{
    ch.unacked.erase(
        ch.unacked.begin(),
        std::partition_point(ch.unacked.begin(), ch.unacked.end(),
                             [up_to](const Unacked &u) {
                                 return u.msg.dseq < up_to;
                             }));
    if (ch.unacked.empty() && ch.retransmitEvent.scheduled())
        net.eventq.deschedule(ch.retransmitEvent);
}

void
DeliveryLayer::onRetransmitTimer(Channel &ch)
{
    for (Unacked &u : ch.unacked) {
        ++u.attempts;
        ch.maxAttempts = std::max(ch.maxAttempts, u.attempts);
        _maxAttempts = std::max(_maxAttempts, u.attempts);
        ++retransmits;
        transmitCopy(u.msg, /*charge_flits=*/true);
    }
    if (!ch.unacked.empty()) {
        net.eventq.scheduleIn(ch.retransmitEvent, retransmitTimeout);
    }
}

void
DeliveryLayer::checkQuiescent(const DeliveryViolationFn &fn) const
{
    for (const Channel *chp : _channels) {
        if (chp == nullptr)
            continue;
        const Channel &ch = *chp;
        if (!ch.unacked.empty()) {
            fn(ch.src, ch.dst,
               strfmt("%zu messages unacknowledged at quiescence "
                      "(first dseq %u)",
                      ch.unacked.size(), ch.unacked.front().msg.dseq));
        }
        const auto held = std::count_if(
            ch.early.begin(), ch.early.end(),
            [](const std::optional<Message> &m) { return m.has_value(); });
        if (held != 0) {
            fn(ch.src, ch.dst,
               strfmt("%zu arrivals held behind a sequence gap at "
                      "quiescence (receiver expects dseq %u)",
                      static_cast<std::size_t>(held), ch.expected));
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
