#include "machine/node.hh"

#include "base/logging.hh"
#include "core/home_controller.hh"
#include "machine/machine.hh"

namespace swex
{

namespace
{

ProcessorConfig
procConfig(const MachineConfig &mc)
{
    ProcessorConfig pc;
    pc.perfectIfetch = mc.perfectIfetch;
    // No software-extension traps on the bus path, hence nothing for
    // the watchdog to flush.
    pc.watchdog = mc.machineModel == MachineModel::Directory &&
                  mc.protocol.needsWatchdog();
    return pc;
}

} // anonymous namespace

Node::Node(Machine &machine, NodeId id)
    : statsGroup(&machine.root, strfmt("node%d", static_cast<int>(id))),
      proc(*this, procConfig(machine.config()), &statsGroup),
      _machine(machine), _id(id)
{
    coh = machine.backend->makeNode(*this);
}

HomeController &
Node::home()
{
    HomeController *h = coh->home();
    SWEX_ASSERT(h, "home() on a non-directory machine model");
    return *h;
}

const HomeController &
Node::home() const
{
    return const_cast<Node *>(this)->home();
}

EventQueue &
Node::eventq()
{
    return _machine.eventq;
}

void
Node::sendMsg(const Message &msg, Cycles delay)
{
    // The backend gets first claim: the directory model applies local
    // grants and uniprocessor-mode local writebacks synchronously.
    if (coh->interceptSend(msg, delay))
        return;

    if (delay == 0) {
        _machine.network.send(msg);
    } else {
        PooledMsgEvent &ev = _machine.network.msgPool().acquire(
            this, &Node::delayedSendHandler, EventPrio::Controller);
        ev.msg = msg;
        eventq().scheduleIn(ev, delay);
    }
}

void
Node::delayedSendHandler(void *ctx, Message &msg)
{
    Node *node = static_cast<Node *>(ctx);
    node->_machine.network.send(msg);
}

void
Node::receiveMessage(const Message &msg)
{
    // Receive-side occupancy: the CMMU drains its input queue one
    // message at a time.
    Tick now = eventq().curTick();
    Tick start = std::max(now, rxFreeAt);
    rxFreeAt = start + rxOccupancy;
    PooledMsgEvent &ev = _machine.network.msgPool().acquire(
        this, &Node::rxDispatchHandler, EventPrio::Controller);
    ev.msg = msg;
    eventq().schedule(ev, rxFreeAt);
}

void
Node::rxDispatchHandler(void *ctx, Message &msg)
{
    static_cast<Node *>(ctx)->dispatchRx(msg);
}

void
Node::dispatchRx(const Message &msg)
{
    coh->dispatchRx(msg);
}

void
Node::raiseTrap(const TrapItem &item)
{
    proc.raiseTrap(item);
}

RemovalResult
Node::invalidateLocal(Addr block_addr)
{
    return coh->invalidateLocal(block_addr);
}

RemovalResult
Node::downgradeLocal(Addr block_addr)
{
    return coh->downgradeLocal(block_addr);
}

void
Node::schedule(Cycles delay, std::function<void()> fn)
{
    eventq().scheduleIn(delay, std::move(fn), EventPrio::Controller);
}

} // namespace swex
