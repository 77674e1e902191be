#include "machine/directory_backend.hh"

#include <algorithm>

#include "base/logging.hh"
#include "machine/machine.hh"
#include "machine/node.hh"

namespace swex
{

DirectoryNodeCoherence::DirectoryNodeCoherence(Node &node,
                                               const MachineConfig &mc)
    : NodeCoherence(node, mc.victimEntries),
      remoteReqs(&statsGroup, "remoteReqs"),
      busyRetries(&statsGroup, "busyRetries"),
      invsReceived(&statsGroup, "invsReceived"),
      fetchesReceived(&statsGroup, "fetchesReceived"),
      homeCtrl(node.id(), mc.numNodes,
               HomeConfig{mc.protocol, mc.profile, mc.parallelInv,
                          mc.mutation},
               node, &node.statsGroup),
      rng(mc.seed * 1000003 + static_cast<std::uint64_t>(node.id()))
{
    statsGroup.addStat(&missLatency);
}

void
DirectoryNodeCoherence::startMiss()
{
    retries = 0;
    readInvalidated = false;
    sendRequest();
}

void
DirectoryNodeCoherence::sendRequest()
{
    ++remoteReqs;
    Message req;
    req.type = mshr.type == MemOpType::Load ? MsgType::ReadReq
                                            : MsgType::WriteReq;
    req.src = _node.id();
    req.dst = _node.machine().homeOf(mshr.addr);
    req.addr = blockAlign(mshr.addr);
    _node.sendMsg(req, missIssueLatency);
}

void
DirectoryNodeCoherence::writeback(const Eviction &ev)
{
    Message wb;
    wb.type = MsgType::Writeback;
    wb.src = _node.id();
    wb.dst = _node.machine().homeOf(ev.blockAddr);
    wb.addr = ev.blockAddr;
    wb.data = ev.data;
    wb.hasData = true;
    _node.sendMsg(wb, 0);
}

void
DirectoryNodeCoherence::handleMessage(const Message &msg,
                                      Cycles resume_extra)
{
    Addr baddr = blockAlign(msg.addr);
    switch (msg.type) {
      case MsgType::ReadData: {
        SWEX_ASSERT(mshr.valid && blockAlign(mshr.addr) == baddr &&
                    mshr.type == MemOpType::Load,
                    "unexpected ReadData");
        // An invalidated transaction still satisfies this one load
        // (our read was serialized before the conflicting write) but
        // must not install the line.
        if (!readInvalidated)
            fill(baddr, LineState::Shared, msg.data);
        finishMiss(msg.data.read(mshr.addr), fillLatency + resume_extra);
        return;
      }

      case MsgType::WriteData: {
        SWEX_ASSERT(mshr.valid && blockAlign(mshr.addr) == baddr &&
                    mshr.type != MemOpType::Load,
                    "unexpected WriteData");
        fill(baddr, LineState::Modified, msg.data);
        Word value = applyOp(*cache().probeMain(baddr), mshr.type,
                             mshr.addr, mshr.operand);
        finishMiss(value, fillLatency + resume_extra);
        return;
      }

      case MsgType::Busy: {
        SWEX_ASSERT(mshr.valid && blockAlign(mshr.addr) == baddr,
                    "busy reply with no transaction");
        ++busyRetries;
        ++retries;
        Cycles backoff =
            std::min<Cycles>(retryBase << std::min(retries, 8u), retryCap);
        backoff += rng.below(8);
        _node.eventq().scheduleIn(retryEvent, backoff);
        return;
      }

      case MsgType::Inv: {
        ++invsReceived;
        if (mshr.valid && blockAlign(mshr.addr) == baddr &&
            mshr.type == MemOpType::Load) {
            // Window of vulnerability: poison the in-flight read so
            // the arriving data is consumed but not cached.
            readInvalidated = true;
        }
        RemovalResult r = invalidateLocal(baddr);
        SWEX_ASSERT(!r.wasDirty,
                    "invalidation hit a dirty line at %#llx",
                    static_cast<unsigned long long>(baddr));
        Message ack;
        ack.type = MsgType::InvAck;
        ack.src = _node.id();
        ack.dst = msg.src;
        ack.addr = baddr;
        _node.sendMsg(ack, hitLatency);
        return;
      }

      case MsgType::FetchS:
      case MsgType::FetchI: {
        ++fetchesReceived;
        const bool exclusive = msg.type == MsgType::FetchI;
        RemovalResult r = exclusive ? invalidateLocal(baddr)
                                    : downgradeLocal(baddr);
        Message rep;
        rep.type = MsgType::FetchReply;
        rep.src = _node.id();
        rep.dst = msg.src;
        rep.addr = baddr;
        rep.isWrite = exclusive;
        rep.seq = msg.seq;
        if (r.wasPresent && r.wasDirty) {
            rep.hasData = true;
            rep.data = r.data;
        }
        // A clean (or absent) copy means this fetch is stale -- the
        // block was already written back or the transaction was
        // superseded; NACK and let the home's seq check sort it out.
        _node.sendMsg(rep, hitLatency);
        return;
      }

      default:
        panic("cache controller received %s", msg.describe().c_str());
    }
}

void
DirectoryNodeCoherence::dispatchRx(const Message &msg)
{
    switch (msg.type) {
      case MsgType::ReadReq:
      case MsgType::WriteReq:
      case MsgType::InvAck:
      case MsgType::Writeback:
      case MsgType::FetchReply:
        homeCtrl.handleMessage(msg);
        break;
      case MsgType::ReadData:
      case MsgType::WriteData:
      case MsgType::Busy:
      case MsgType::Inv:
      case MsgType::FetchS:
      case MsgType::FetchI:
        handleMessage(msg);
        break;
      default:
        panic("unroutable message %s", msg.describe().c_str());
    }
}

bool
DirectoryNodeCoherence::interceptSend(const Message &msg, Cycles delay)
{
    const MachineConfig &mc = _node.machine().config();

    // Local data grants are applied to the cache synchronously, at
    // the moment the directory transitions: the CMMU's directory and
    // cache sides are co-located, and an in-flight loopback grant
    // could otherwise race with a synchronous local invalidation or
    // flush (leaving a stale or duplicate-dirty copy). The DRAM and
    // handler latency is still charged, on the processor's resume.
    if (msg.dst == _node.id() && (msg.type == MsgType::ReadData ||
                                  msg.type == MsgType::WriteData)) {
        handleMessage(msg, delay + loopback);
        return true;
    }

    // Local writebacks in the software-only directory's uniprocessor
    // mode bypass the network loopback: there is no directory state to
    // order an in-flight local writeback against a remote request, so
    // the CMMU drains the local writeback synchronously.
    if (msg.type == MsgType::Writeback && msg.dst == _node.id() &&
        mc.protocol.hwPointers == 0 && delay == 0) {
        homeCtrl.handleMessage(msg);
        return true;
    }
    return false;
}

std::string
DirectoryBackend::protocolName() const
{
    return _m.config().protocol.name();
}

std::unique_ptr<NodeCoherence>
DirectoryBackend::makeNode(Node &node)
{
    auto nc = std::make_unique<DirectoryNodeCoherence>(node, _m.config());
    if (_m.config().trackSharing)
        nc->home()->setTracker(&_m.tracker);
    return nc;
}

std::string
DirectoryBackend::stallSummary() const
{
    constexpr std::size_t maxLines = 16;
    std::string out;
    std::size_t lines = 0, suppressed = 0;
    for (const auto &node : _m.nodes) {
        const HomeController &home = *node->coh->home();
        home.dir.forEach([&](Addr a, const DirEntry &e) {
            if (e.state == DirState::Uncached ||
                e.state == DirState::Shared ||
                e.state == DirState::Exclusive) {
                return;
            }
            if (lines >= maxLines) {
                ++suppressed;
                return;
            }
            ++lines;
            out += strfmt("home %d block %#llx stuck in %s "
                          "(pending node %d, %u acks outstanding%s)\n",
                          static_cast<int>(node->id()),
                          static_cast<unsigned long long>(a),
                          dirStateName(e.state),
                          static_cast<int>(e.pendingNode), e.ackCount,
                          e.trapPending() ? ", trap queued" : "");
        });
        if (home.deferredCount() != 0) {
            out += strfmt("home %d holds %zu deferred requests\n",
                          static_cast<int>(node->id()),
                          home.deferredCount());
        }
    }
    if (suppressed > 0)
        out += strfmt("(%zu more stalled transactions)\n", suppressed);
    return out;
}

std::uint64_t
DirectoryBackend::trafficMessages() const
{
    return static_cast<std::uint64_t>(_m.network.msgCount.value());
}

} // namespace swex
