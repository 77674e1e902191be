#include "net/network.hh"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "base/logging.hh"
#include "base/rng.hh"

namespace swex
{

const char *
msgTypeName(MsgType t)
{
    switch (t) {
      case MsgType::ReadReq: return "ReadReq";
      case MsgType::WriteReq: return "WriteReq";
      case MsgType::ReadData: return "ReadData";
      case MsgType::WriteData: return "WriteData";
      case MsgType::Inv: return "Inv";
      case MsgType::InvAck: return "InvAck";
      case MsgType::Busy: return "Busy";
      case MsgType::FetchS: return "FetchS";
      case MsgType::FetchI: return "FetchI";
      case MsgType::FetchReply: return "FetchReply";
      case MsgType::Writeback: return "Writeback";
      default: return "?";
    }
}

std::string
Message::describe() const
{
    return strfmt("%s %d->%d addr=%#llx%s", msgTypeName(type),
                  static_cast<int>(src), static_cast<int>(dst),
                  static_cast<unsigned long long>(addr),
                  hasData ? " +data" : "");
}

namespace
{

/** Pick a near-square grid that tiles @p n exactly. */
std::pair<int, int>
gridShape(int n)
{
    int best_w = 1;
    for (int w = 1; w * w <= n; ++w)
        if (n % w == 0)
            best_w = w;
    return {n / best_w, best_w};
}

} // anonymous namespace

MeshNetwork::MeshNetwork(EventQueue &eq, int nodes, NetworkConfig cfg,
                         stats::Group *statsParent)
    : statsGroup(statsParent, "network"),
      msgCount(&statsGroup, "msgCount"),
      flitCount(&statsGroup, "flitCount"),
      txQueueWait(&statsGroup, "txQueueWait"),
      transitLatency(&statsGroup, "transitLatency"),
      eventq(eq), config(cfg), numNodes(nodes),
      receivers(static_cast<size_t>(nodes), nullptr),
      txPorts(static_cast<size_t>(nodes))
{
    SWEX_ASSERT(nodes > 0, "network needs at least one node");
    auto [w, h] = gridShape(nodes);
    _width = w;
    _height = h;
    // The delivery layer (and its statistics group) only exists when
    // fault injection is on, so quiet runs stay byte-identical.
    if (config.faults.enabled())
        _delivery = std::make_unique<DeliveryLayer>(*this, &statsGroup);
}

void
MeshNetwork::setReceiver(NodeId node, MsgReceiver *recv)
{
    receivers.at(static_cast<size_t>(node)) = recv;
}

unsigned
MeshNetwork::hopCount(NodeId a, NodeId b) const
{
    int ax = a % _width, ay = a / _width;
    int bx = b % _width, by = b / _width;
    return static_cast<unsigned>(std::abs(ax - bx) + std::abs(ay - by));
}

Cycles
MeshNetwork::jitterFor()
{
    if (config.jitterMax == 0)
        return 0;
    // One SplitMix64 step per message: deterministic in (seed,
    // message index), independent of host state, cheap enough to sit
    // on the send path.
    std::uint64_t z =
        mix64(config.jitterSeed + goldenGamma * ++_jitterCounter);
    return static_cast<Cycles>(z % (config.jitterMax + 1));
}

void
MeshNetwork::send(Message msg)
{
    SWEX_ASSERT(msg.src >= 0 && msg.src < numNodes &&
                msg.dst >= 0 && msg.dst < numNodes,
                "bad endpoints in %s", msg.describe().c_str());

    ++msgCount;
    flitCount += msg.flits();

    if (msg.src == msg.dst) {
        // CMMU loopback path: no mesh traversal, no serialization,
        // and no faults (the message never touches the wire).
        Cycles jitter = jitterFor();
        PooledMsgEvent &ev = _msgPool.acquire(
            this, &MeshNetwork::deliverHandler, EventPrio::Network);
        ev.msg = msg;
        eventq.scheduleIn(ev, loopback + jitter);
        transitLatency.sample(static_cast<double>(loopback + jitter));
        return;
    }

    if (_delivery) {
        // Fault mode: the delivery layer sequences, retains, and
        // transmits (possibly repeatedly) through the faulty wire.
        _delivery->send(msg);
        return;
    }

    Cycles jitter = jitterFor();
    // Jitter perturbs only the wire, never the serializer: the port
    // frees when the flits leave regardless, so the stressor reorders
    // messages without changing injection bandwidth.
    Tick arrive = serialize(msg) + wireLatency(msg.src, msg.dst) + jitter;
    transitLatency.sample(static_cast<double>(arrive - eventq.curTick()));

    PooledMsgEvent &ev = _msgPool.acquire(
        this, &MeshNetwork::deliverHandler, EventPrio::Network);
    ev.msg = msg;
    eventq.schedule(ev, arrive);
}

Tick
MeshNetwork::serialize(const Message &msg)
{
    Tick now = eventq.curTick();
    TxPort &port = txPorts[static_cast<size_t>(msg.src)];
    Tick start = std::max(now, port.freeAt);
    txQueueWait.sample(static_cast<double>(start - now));
    port.freeAt = start + msg.flits();
    return port.freeAt;
}

void
MeshNetwork::deliverHandler(void *ctx, Message &msg)
{
    static_cast<MeshNetwork *>(ctx)->deliver(msg);
}

void
MeshNetwork::deliver(const Message &msg)
{
    if (config.traceDepth > 0) {
        if (_trace.size() == config.traceDepth)
            _trace.pop_front();
        _trace.push_back({eventq.curTick(), msg});
    }
    MsgReceiver *recv = receivers[static_cast<size_t>(msg.dst)];
    SWEX_ASSERT(recv, "no receiver registered for node %d",
                static_cast<int>(msg.dst));
    recv->receiveMessage(msg);
}

void
MeshNetwork::dumpTrace(std::ostream &os) const
{
    if (config.traceDepth == 0) {
        os << "  (message tracing disabled)\n";
        return;
    }
    for (const TraceEntry &t : _trace) {
        os << strfmt("  [%10llu] %s\n",
                     static_cast<unsigned long long>(t.when),
                     t.msg.describe().c_str());
    }
}

} // namespace swex
