#include "core/home_controller.hh"

#include <algorithm>

#include "base/logging.hh"

namespace swex
{

const char *
dirStateName(DirState s)
{
    switch (s) {
      case DirState::Uncached: return "Uncached";
      case DirState::Shared: return "Shared";
      case DirState::Exclusive: return "Exclusive";
      case DirState::PendRead: return "PendRead";
      case DirState::PendWrite: return "PendWrite";
      case DirState::SwPendWrite: return "SwPendWrite";
      default: return "?";
    }
}

// ==================================================================
// CoherenceInterface
// ==================================================================

CoherenceInterface::CoherenceInterface(HomeController &controller,
                                       const TrapItem &item)
    : hc(controller), _item(item)
{
    switch (item.kind) {
      case TrapKind::WriteOverflow:
      case TrapKind::WriteBroadcast:
      case TrapKind::LastAck:
      case TrapKind::EveryAck:
        _isWrite = true;
        break;
      case TrapKind::SwRequest:
        _isWrite = item.msg.type == MsgType::WriteReq ||
                   item.msg.type == MsgType::Writeback;
        break;
      case TrapKind::SwBusy:
        _isWrite = item.msg.isWrite ||
                   item.msg.type == MsgType::WriteReq;
        break;
      default:
        _isWrite = false;
        break;
    }
}

NodeId
CoherenceInterface::homeNode() const
{
    return hc.homeNode();
}

int
CoherenceInterface::numNodes() const
{
    return hc.numNodes();
}

const ProtocolConfig &
CoherenceInterface::protocol() const
{
    return hc.config().protocol;
}

void
CoherenceInterface::charge(Activity a, unsigned count)
{
    _elapsed += count * hc.costs.cost(a, _isWrite);
}

DirEntry &
CoherenceInterface::hwEntry()
{
    if (!_decoded) {
        charge(Activity::DecodeDir);
        _decoded = true;
    }
    return hc.dir.entry(blockAlign(_item.msg.addr));
}

void
CoherenceInterface::sendData(NodeId dst, bool exclusive)
{
    hc.send(this, exclusive ? MsgType::WriteData : MsgType::ReadData,
            blockAlign(_item.msg.addr), dst);
}

void
CoherenceInterface::sendBusy(NodeId dst, bool busy_for_write)
{
    hc.send(this, MsgType::Busy, blockAlign(_item.msg.addr), dst, 0,
            busy_for_write);
}

void
CoherenceInterface::sendInv(NodeId dst)
{
    hc.send(this, MsgType::Inv, blockAlign(_item.msg.addr), dst);
}

void
CoherenceInterface::flushLocalCache()
{
    hc.flushLocal(this, blockAlign(_item.msg.addr));
}

ExtEntry *
CoherenceInterface::extLookup()
{
    charge(Activity::HashAdmin);
    return hc.ext.lookup(blockAlign(_item.msg.addr));
}

ExtEntry &
CoherenceInterface::extAlloc()
{
    charge(Activity::HashAdmin);
    Addr a = blockAlign(_item.msg.addr);
    if (!hc.ext.lookup(a))
        charge(Activity::MemMgmt);
    return hc.ext.alloc(a);
}

void
CoherenceInterface::extRelease()
{
    charge(Activity::MemMgmt);
    hc.ext.release(blockAlign(_item.msg.addr));
}

void
CoherenceInterface::recordSharer(ExtEntry &entry, NodeId n)
{
    charge(Activity::StorePointer);
    hc.ext.addSharer(entry, n);
}

MemoryModule &
CoherenceInterface::memory()
{
    return hc.node.memory();
}

// ==================================================================
// HomeController: construction
// ==================================================================

HomeController::HomeController(NodeId home_id, int num_nodes,
                               const HomeConfig &config,
                               NodeServices &services,
                               stats::Group *stats_parent)
    : statsGroup(stats_parent, "home"),
      hwHandled(&statsGroup, "hwHandled"),
      trapsRaised(&statsGroup, "trapsRaised"),
      busySent(&statsGroup, "busySent"),
      hwInvsSent(&statsGroup, "hwInvsSent"),
      swInvsSent(&statsGroup, "swInvsSent"),
      handlerCycles(&statsGroup, "handlerCycles"),
      readHandlerCycles(&statsGroup, "readHandlerCycles"),
      writeHandlerCycles(&statsGroup, "writeHandlerCycles"),
      ackHandlerCycles(&statsGroup, "ackHandlerCycles"),
      trapsByKind{
          {&statsGroup, "trapsReadOverflow"},
          {&statsGroup, "trapsWriteOverflow"},
          {&statsGroup, "trapsWriteBroadcast"},
          {&statsGroup, "trapsLastAck"},
          {&statsGroup, "trapsEveryAck"},
          {&statsGroup, "trapsSwRequest"},
          {&statsGroup, "trapsSwBusy"},
      },
      ext(&statsGroup),
      home(home_id), nodes(num_nodes), cfg(config), node(services),
      costs(config.profile)
{
    SWEX_ASSERT(num_nodes <= maxNodes, "too many nodes: %d", num_nodes);
}

// ==================================================================
// Actions
// ==================================================================

void
HomeController::send(CoherenceInterface *ci, MsgType type, Addr a,
                     NodeId dst, std::uint8_t seq, bool busy_for_write)
{
    Message m;
    m.type = type;
    m.src = home;
    m.dst = dst;
    m.addr = a;
    m.seq = seq;
    m.isWrite = busy_for_write;
    switch (type) {
      case MsgType::ReadData:
      case MsgType::WriteData:
        m.data = node.memory().readBlock(a);
        m.hasData = true;
        if (ci)
            ci->charge(Activity::DataSend);
        break;
      case MsgType::Inv:
        if (ci) {
            // Section 7 enhancement: a parallel invalidation procedure
            // pipelines message composition so that invalidations past
            // the first cost a quarter of the sequential per-message
            // work.
            Cycles unit = costs.cost(Activity::InvXmit, ci->isWrite());
            if (cfg.parallelInv && ci->_invsSent > 0)
                unit = std::max<Cycles>(1, unit / 4);
            ci->_elapsed += unit;
            ++ci->_invsSent;
            ++swInvsSent;
        } else {
            ++hwInvsSent;
        }
        break;
      case MsgType::Busy:
        ++busySent;
        [[fallthrough]];
      default:
        if (ci)
            ci->charge(Activity::BusySend);
        break;
    }
    // A handler's message leaves at the cycle the handler issues it;
    // the hardware's after its DRAM access or control synthesis.
    Cycles fixed = m.hasData ? memLatency : hwCtrlLatency;
    node.sendMsg(m, ci ? ci->elapsed() : fixed);
    if (type == MsgType::Inv && audit)
        audit->onInvSent(home, a);
}

void
HomeController::flushLocal(CoherenceInterface *ci, Addr a)
{
    if (ci)
        ci->charge(Activity::FreePointer);
    RemovalResult r = node.invalidateLocal(a);
    if (r.wasPresent && r.wasDirty)
        node.memory().writeBlock(a, r.data);
}

void
HomeController::grantExclusive(CoherenceInterface *ci, DirEntry &e,
                               Addr a, NodeId owner)
{
    e.state = DirState::Exclusive;
    e.clearSharers();
    e.ptrs[0] = owner;
    e.ptrCount = 1;
    e.ackCount = 0;
    e.pendingNode = invalidNode;
    e.pendingIsWrite = false;
    e.pendingSwSend = false;
    trackExclusive(a, owner);
    send(ci, MsgType::WriteData, a, owner);
}

bool
HomeController::recordReaderHw(DirEntry &e, NodeId reader)
{
    const ProtocolConfig &p = cfg.protocol;
    if (p.isFullMap()) {
        e.fullMap.set(static_cast<std::size_t>(reader));
        return true;
    }
    if (p.localBit && reader == home) {
        e.localBit = true;
        return true;
    }
    if (e.hasPtr(reader))
        return true;
    if (e.ptrCount < p.hwPointers) {
        if (cfg.mutation == ProtocolMutation::DropPointer)
            return true;   // injected bug: grant without recording
        e.addPtr(reader, p.hwPointers);
        return true;
    }
    if (p.swBroadcast) {
        // Dir1SW: untracked copies are allowed; mark for broadcast.
        e.broadcastBit = true;
        return true;
    }
    return false;
}

std::vector<NodeId>
HomeController::hwSharers(const DirEntry &e, NodeId exclude) const
{
    std::vector<NodeId> out;
    if (cfg.protocol.isFullMap()) {
        for (int n = 0; n < nodes; ++n)
            if (e.fullMap.test(static_cast<std::size_t>(n)) &&
                n != exclude)
                out.push_back(n);
    } else {
        for (unsigned i = 0; i < e.ptrCount; ++i)
            if (e.ptrs[i] != exclude)
                out.push_back(e.ptrs[i]);
    }
    return out;
}

void
HomeController::deferRequest(const Message &msg)
{
    deferred[blockAlign(msg.addr)].push_back(msg);
}

void
HomeController::replayDeferred(Addr block_addr)
{
    auto it = deferred.find(block_addr);
    if (it == deferred.end())
        return;
    auto &q = it->second;
    DirEntry &e = dir.entry(block_addr);
    // Bounded drain: a replayed request may start a new transaction,
    // re-parking the messages behind it.
    std::size_t budget = q.size();
    while (budget-- > 0 && !q.empty() && !e.trapPending()) {
        Message msg = q.front();
        q.pop_front();
        handleMessage(msg);
    }
    if (q.empty())
        deferred.erase(it);
}

void
HomeController::raise(TrapKind kind, const Message &msg)
{
    DirEntry &e = dir.entry(blockAlign(msg.addr));
    ++e.trapsQueued;
    ++trapsRaised;
    ++trapsByKind[static_cast<unsigned>(kind)];
    node.raiseTrap(TrapItem{kind, msg});
}

void
HomeController::trackShared(Addr block_addr, NodeId n)
{
    if (tracker)
        tracker->onShared(block_addr, n);
}

void
HomeController::trackExclusive(Addr block_addr, NodeId n)
{
    if (tracker)
        tracker->onExclusive(block_addr, n);
}

// ==================================================================
// Hardware state machine
// ==================================================================

void
HomeController::handleMessage(const Message &msg)
{
    SWEX_ASSERT(msg.dst == home, "message %s routed to wrong home %d",
                msg.describe().c_str(), static_cast<int>(home));
    switch (msg.type) {
      case MsgType::ReadReq: onReadReq(msg); break;
      case MsgType::WriteReq: onWriteReq(msg); break;
      case MsgType::InvAck: onInvAck(msg); break;
      case MsgType::Writeback: onWriteback(msg); break;
      case MsgType::FetchReply: onFetchReply(msg); break;
      default:
        panic("home controller received %s", msg.describe().c_str());
    }
    if (audit)
        audit->onHomeTransition(*this, blockAlign(msg.addr));
}

void
HomeController::onReadReq(const Message &msg)
{
    const ProtocolConfig &p = cfg.protocol;
    Addr a = blockAlign(msg.addr);
    DirEntry &e = dir.entry(a);

    if (p.hwPointers == 0) {
        if (msg.src == home && !e.remoteTouched) {
            // Uniprocessor fast path: the remote-touched bit is clear,
            // so the hardware services the local access directly.
            ++hwHandled;
            trackShared(a, home);
            send(nullptr, MsgType::ReadData, a, home);
            return;
        }
        raise(TrapKind::SwRequest, msg);
        return;
    }

    if (e.state == DirState::SwPendWrite) {
        // Software owns the transaction; even the busy reply is sent
        // by software (the ACK protocols pay for this heavily).
        raise(TrapKind::SwBusy, msg);
        return;
    }
    if (e.trapPending()) {
        deferRequest(msg);
        return;
    }

    switch (e.state) {
      case DirState::Uncached:
      case DirState::Shared:
        e.state = DirState::Shared;
        trackShared(a, msg.src);
        // On pointer overflow the hardware still returns the data
        // (Section 2.2); software records the requester.
        if (recordReaderHw(e, msg.src)) {
            ++hwHandled;
            send(nullptr, MsgType::ReadData, a, msg.src);
        } else {
            send(nullptr, MsgType::ReadData, a, msg.src);
            raise(TrapKind::ReadOverflow, msg);
        }
        return;

      case DirState::Exclusive:
        recall(nullptr, e, a, msg.src, false);
        return;

      case DirState::PendRead:
      case DirState::PendWrite:
        // A hardware transaction is in flight; park the request in
        // the CMMU input queue and replay it at completion.
        deferRequest(msg);
        return;

      default:
        panic("onReadReq: bad state %s", dirStateName(e.state));
    }
}

void
HomeController::onWriteReq(const Message &msg)
{
    const ProtocolConfig &p = cfg.protocol;
    Addr a = blockAlign(msg.addr);
    DirEntry &e = dir.entry(a);

    if (p.hwPointers == 0) {
        if (msg.src == home && !e.remoteTouched) {
            ++hwHandled;
            trackExclusive(a, home);
            send(nullptr, MsgType::WriteData, a, home);
            return;
        }
        raise(TrapKind::SwRequest, msg);
        return;
    }

    if (e.state == DirState::SwPendWrite) {
        raise(TrapKind::SwBusy, msg);
        return;
    }
    if (e.trapPending()) {
        deferRequest(msg);
        return;
    }

    switch (e.state) {
      case DirState::Uncached:
        ++hwHandled;
        grantExclusive(nullptr, e, a, msg.src);
        return;

      case DirState::Shared: {
        if (e.overflowed) {
            raise(TrapKind::WriteOverflow, msg);
            return;
        }
        if (e.broadcastBit) {
            raise(TrapKind::WriteBroadcast, msg);
            return;
        }
        std::vector<NodeId> targets = hwSharers(e, msg.src);
        if (!targets.empty() && p.hwPointers == 1 && !p.swBroadcast) {
            // One-pointer protocols transmit all data invalidations
            // with the same software routine (Section 2.4).
            raise(TrapKind::WriteOverflow, msg);
            return;
        }
        // Hardware can invalidate its own pointed-to copies.
        SWEX_ASSERT(targets.empty() || p.ackMode != AckMode::EveryAck,
                    "EveryAck protocols cannot count acks in hw");
        ++hwHandled;
        invalidate(nullptr, e, a, msg.src, targets,
                   e.localBit && msg.src != home, false);
        if (e.ackCount > 0 &&
            cfg.mutation == ProtocolMutation::AckOvercount)
            ++e.ackCount;   // injected bug: one phantom ack expected
        return;
      }

      case DirState::Exclusive:
        recall(nullptr, e, a, msg.src, true);
        return;

      case DirState::PendRead:
      case DirState::PendWrite:
        deferRequest(msg);
        return;

      default:
        panic("onWriteReq: bad state %s", dirStateName(e.state));
    }
}

void
HomeController::onInvAck(const Message &msg)
{
    Addr a = blockAlign(msg.addr);
    DirEntry &e = dir.entry(a);

    if (e.state == DirState::SwPendWrite) {
        raise(TrapKind::EveryAck, msg);
        return;
    }

    SWEX_ASSERT(e.state == DirState::PendWrite && e.ackCount > 0,
                "stray InvAck: state %s ackCount %u",
                dirStateName(e.state), e.ackCount);
    ++hwHandled;
    --e.ackCount;
    if (audit)
        audit->onInvAckCounted(home, a);
    if (e.ackCount == 0) {
        if (e.pendingSwSend) {
            if (cfg.mutation == ProtocolMutation::SkipLastAckTrap)
                return;   // injected bug: the LACK trap never fires
            raise(TrapKind::LastAck, msg);
        } else {
            grantExclusive(nullptr, e, a, e.pendingNode);
            replayDeferred(a);
        }
    }
}

void
HomeController::onWriteback(const Message &msg)
{
    Addr a = blockAlign(msg.addr);
    DirEntry &e = dir.entry(a);

    if (cfg.protocol.hwPointers == 0) {
        if (msg.src == home && !e.remoteTouched) {
            ++hwHandled;
            node.memory().writeBlock(a, msg.data);
            return;
        }
        raise(TrapKind::SwRequest, msg);
        return;
    }
    ++hwHandled;
    writeback(nullptr, e, msg);
}

void
HomeController::onFetchReply(const Message &msg)
{
    if (cfg.protocol.hwPointers == 0) {
        raise(TrapKind::SwRequest, msg);
        return;
    }
    ++hwHandled;
    fetchReply(nullptr, dir.entry(blockAlign(msg.addr)), msg);
}

// ==================================================================
// Transitions shared by the hardware and the protocol software
// ==================================================================

void
HomeController::recall(CoherenceInterface *ci, DirEntry &e, Addr a,
                       NodeId req, bool is_write)
{
    NodeId owner = e.ptrs[0];
    if (owner == req) {
        // Owner lost the line (writeback in flight); retry.
        send(ci, MsgType::Busy, a, req, 0, is_write);
        return;
    }
    e.state = DirState::PendRead;
    e.pendingNode = req;
    e.pendingIsWrite = is_write;
    e.fetchOutstanding = true;
    ++e.fetchSeq;
    if (!ci)
        ++hwHandled;
    send(ci, is_write ? MsgType::FetchI : MsgType::FetchS, a, owner,
         e.fetchSeq);
}

void
HomeController::fetchReply(CoherenceInterface *ci, DirEntry &e,
                           const Message &msg)
{
    if (msg.seq != e.fetchSeq)
        return;   // reply from a superseded fetch transaction
    SWEX_ASSERT(e.fetchOutstanding, "FetchReply with no fetch pending");
    e.fetchOutstanding = false;

    Addr a = blockAlign(msg.addr);
    if (msg.hasData) {
        SWEX_ASSERT(e.state == DirState::PendRead,
                    "FetchReply(data) in state %s",
                    dirStateName(e.state));
        node.memory().writeBlock(a, msg.data);
        completeFetch(ci, e, a);
        return;
    }
    if (e.state == DirState::PendRead) {
        // The owner NACKed: either its writeback is still in flight
        // (and will complete this transaction) or our own grant has
        // not reached it yet (the window-of-vulnerability race).
        // Re-fetch; the loop ends when either message lands.
        e.fetchOutstanding = true;
        send(ci, e.pendingIsWrite ? MsgType::FetchI : MsgType::FetchS, a,
             e.ptrs[0], e.fetchSeq);
    }
}

void
HomeController::writeback(CoherenceInterface *ci, DirEntry &e,
                          const Message &msg)
{
    Addr a = blockAlign(msg.addr);
    node.memory().writeBlock(a, msg.data);

    if (e.state == DirState::Exclusive && e.ptrCount == 1 &&
        e.ptrs[0] == msg.src) {
        e.state = DirState::Uncached;
        e.clearSharers();
        return;
    }
    if (e.state == DirState::PendRead && e.ptrs[0] == msg.src) {
        // Owner evicted the line while our fetch was in flight; this
        // writeback carries the data and completes the transaction.
        completeFetch(ci, e, a);
        return;
    }
    // The software-only directory accepts a stale writeback from the
    // uniprocessor-mode transition: memory is updated, nothing else
    // to do. The hardware never sees one.
    if (!ci)
        panic("unexpected writeback in state %s (node %d, src %d)",
              dirStateName(e.state), static_cast<int>(home),
              static_cast<int>(msg.src));
}

void
HomeController::completeFetch(CoherenceInterface *ci, DirEntry &e,
                              Addr a)
{
    NodeId req = e.pendingNode;
    NodeId owner = e.ptrs[0];
    bool is_write = e.pendingIsWrite;
    // The owner retains a read-only copy only for a downgrade: a
    // FetchS answered with data (fetchOutstanding already cleared by
    // fetchReply). On the writeback-completion path the fetch is
    // still outstanding and the owner's copy is gone.
    bool owner_retains = !is_write && !e.fetchOutstanding;

    e.clearSharers();
    e.pendingNode = invalidNode;
    e.pendingIsWrite = false;

    if (is_write) {
        grantExclusive(ci, e, a, req);
        if (!ci)
            replayDeferred(a);
        return;
    }

    e.state = DirState::Shared;
    trackShared(a, req);
    if (ci) {
        // The software-only directory records readers in software.
        ExtEntry &xe = ci->extAlloc();
        if (owner_retains)
            ci->recordSharer(xe, owner);
        ci->recordSharer(xe, req);
        send(ci, MsgType::ReadData, a, req);
        return;
    }
    if (owner_retains)
        recordReaderHw(e, owner);
    bool recorded = recordReaderHw(e, req);
    send(nullptr, MsgType::ReadData, a, req);
    if (recorded) {
        replayDeferred(a);
        return;
    }
    Message synth;
    synth.type = MsgType::ReadReq;
    synth.src = req;
    synth.dst = home;
    synth.addr = a;
    raise(TrapKind::ReadOverflow, synth);
    // Deferred requests replay when the trap completes.
}

void
HomeController::invalidate(CoherenceInterface *ci, DirEntry &e, Addr a,
                           NodeId req, const std::vector<NodeId> &targets,
                           bool flush_local, bool release_ext)
{
    for (NodeId t : targets)
        send(ci, MsgType::Inv, a, t);
    if (flush_local)
        flushLocal(ci, a);
    if (release_ext)
        ci->extRelease();

    e.clearSharers();
    e.overflowed = false;
    e.ackCount = static_cast<std::uint32_t>(targets.size());
    if (e.ackCount == 0) {
        grantExclusive(ci, e, a, req);
        return;
    }
    e.pendingNode = req;
    e.pendingIsWrite = true;
    if (cfg.protocol.ackMode == AckMode::EveryAck) {
        e.state = DirState::SwPendWrite;
    } else {
        e.state = DirState::PendWrite;
        e.pendingSwSend = (cfg.protocol.ackMode == AckMode::LastAck);
    }
}

// ==================================================================
// Software handler dispatch
// ==================================================================

Cycles
HomeController::runTrap(const TrapItem &item)
{
    CoherenceInterface ci(*this, item);

    // Standard prologue (Table 2): exception entry, message dispatch,
    // and -- for the C implementation -- protocol-specific dispatch,
    // environment save, and non-Alewife protocol support.
    ci.charge(Activity::TrapDispatch);
    ci.charge(Activity::MsgDispatch);
    ci.charge(Activity::ProtoDispatch);
    ci.charge(Activity::SaveState);
    ci.charge(Activity::NonAlewife);

    bool handled = custom && custom(ci);
    if (!handled) {
        switch (item.kind) {
          case TrapKind::ReadOverflow: handleReadOverflow(ci); break;
          case TrapKind::WriteOverflow: handleWriteOverflow(ci); break;
          case TrapKind::WriteBroadcast: handleWriteBroadcast(ci); break;
          case TrapKind::LastAck: handleLastAck(ci); break;
          case TrapKind::EveryAck: handleEveryAck(ci); break;
          case TrapKind::SwRequest: handleSwRequest(ci); break;
          case TrapKind::SwBusy: handleSwBusy(ci); break;
          default: panic("bad trap kind");
        }
    }

    ci.charge(Activity::TrapReturn);
    Cycles total = ci.elapsed();

    DirEntry &e = dir.entry(blockAlign(item.msg.addr));
    SWEX_ASSERT(e.trapsQueued > 0, "trap accounting underflow");
    --e.trapsQueued;
    if (!e.trapPending()) {
        // Replay requests the CMMU parked during the trap, once the
        // handler's occupancy has elapsed.
        Addr a = blockAlign(item.msg.addr);
        node.schedule(total, [this, a] {
            if (!dir.entry(a).trapPending())
                replayDeferred(a);
        });
    }

    handlerCycles += static_cast<double>(total);
    switch (item.kind) {
      case TrapKind::ReadOverflow:
        readHandlerCycles.sample(static_cast<double>(total));
        break;
      case TrapKind::WriteOverflow:
      case TrapKind::WriteBroadcast:
        writeHandlerCycles.sample(static_cast<double>(total));
        break;
      case TrapKind::LastAck:
      case TrapKind::EveryAck:
        ackHandlerCycles.sample(static_cast<double>(total));
        break;
      case TrapKind::SwRequest:
        if (item.msg.type == MsgType::ReadReq)
            readHandlerCycles.sample(static_cast<double>(total));
        else if (item.msg.type == MsgType::WriteReq)
            writeHandlerCycles.sample(static_cast<double>(total));
        break;
      default:
        break;
    }
    if (audit)
        audit->onHomeTransition(*this, blockAlign(item.msg.addr));
    return total;
}

// ==================================================================
// Built-in protocol extension software
// ==================================================================

void
HomeController::handleReadOverflow(CoherenceInterface &ci)
{
    DirEntry &e = ci.hwEntry();
    SWEX_ASSERT(e.state == DirState::Shared,
                "read overflow in state %s", dirStateName(e.state));
    // Empty the hardware pointers into the extended directory and
    // record the node that caused the overflow (Section 2.2). The
    // hardware already returned the data.
    ExtEntry &xe = ci.extAlloc();
    for (unsigned i = 0; i < e.ptrCount; ++i)
        ci.recordSharer(xe, e.ptrs[i]);
    e.clearPtrs();
    ci.recordSharer(xe, ci.item().msg.src);
    e.overflowed = true;
}

void
HomeController::handleWriteOverflow(CoherenceInterface &ci)
{
    DirEntry &e = ci.hwEntry();
    SWEX_ASSERT(e.state == DirState::Shared,
                "write overflow in state %s", dirStateName(e.state));
    NodeId req = ci.item().msg.src;

    // Union of hardware pointers and software-extended sharers; the
    // home's own copy is flushed locally instead.
    std::vector<NodeId> targets;
    bool home_has_copy = e.localBit;
    auto add_target = [&](NodeId n) {
        ci.charge(Activity::FreePointer);
        if (n == home)
            home_has_copy = true;
        if (n != req && n != home &&
            std::find(targets.begin(), targets.end(), n) == targets.end())
            targets.push_back(n);
    };
    for (unsigned i = 0; i < e.ptrCount; ++i)
        add_target(e.ptrs[i]);
    ExtEntry *xe = ci.extLookup();
    if (xe)
        ext.forEachSharer(*xe, add_target);

    invalidate(&ci, e, blockAlign(ci.item().msg.addr), req, targets,
               home_has_copy && req != home, xe != nullptr);
}

void
HomeController::handleWriteBroadcast(CoherenceInterface &ci)
{
    DirEntry &e = ci.hwEntry();
    SWEX_ASSERT(e.state == DirState::Shared && e.broadcastBit,
                "broadcast trap without broadcast bit");
    NodeId req = ci.item().msg.src;

    // Dir1SW: the software does not know who holds copies; it
    // broadcasts an invalidation to every node.
    std::vector<NodeId> targets;
    for (NodeId n = 0; n < nodes; ++n)
        if (n != req && n != home)
            targets.push_back(n);
    invalidate(&ci, e, blockAlign(ci.item().msg.addr), req, targets,
               req != home, false);
}

void
HomeController::handleLastAck(CoherenceInterface &ci)
{
    DirEntry &e = ci.hwEntry();
    SWEX_ASSERT(e.state == DirState::PendWrite && e.ackCount == 0 &&
                e.pendingSwSend, "bad LastAck trap");
    grantExclusive(&ci, e, blockAlign(ci.item().msg.addr), e.pendingNode);
}

void
HomeController::handleEveryAck(CoherenceInterface &ci)
{
    DirEntry &e = ci.hwEntry();
    SWEX_ASSERT(e.state == DirState::SwPendWrite && e.ackCount > 0,
                "bad EveryAck trap");
    Addr a = blockAlign(ci.item().msg.addr);
    --e.ackCount;
    if (audit)
        audit->onInvAckCounted(home, a);
    if (e.ackCount == 0)
        grantExclusive(&ci, e, a, e.pendingNode);
}

void
HomeController::handleSwBusy(CoherenceInterface &ci)
{
    const Message &msg = ci.item().msg;
    ci.hwEntry();
    ci.sendBusy(msg.src, msg.type == MsgType::WriteReq);
}

// ==================================================================
// The software-only directory (Dir_n H_0 S_{NB,ACK})
// ==================================================================

void
HomeController::handleSwRequest(CoherenceInterface &ci)
{
    const Message &msg = ci.item().msg;
    DirEntry &e = ci.hwEntry();
    Addr a = blockAlign(msg.addr);

    if (!e.remoteTouched && msg.src != home) {
        // First inter-node access: set the bit and flush the block
        // from the local cache (Section 2.3).
        e.remoteTouched = true;
        ci.flushLocalCache();
    }

    switch (msg.type) {
      case MsgType::ReadReq:
      case MsgType::WriteReq:
        break;
      case MsgType::Writeback:
        writeback(&ci, e, msg);
        return;
      case MsgType::FetchReply:
        fetchReply(&ci, e, msg);
        return;
      default:
        panic("SwRequest trap for %s", msg.describe().c_str());
    }

    bool is_write = msg.type == MsgType::WriteReq;
    switch (e.state) {
      case DirState::Uncached:
      case DirState::Shared:
        if (!is_write) {
            ExtEntry &xe = ci.extAlloc();
            ci.recordSharer(xe, msg.src);
            e.state = DirState::Shared;
            trackShared(a, msg.src);
            ci.sendData(msg.src, false);
        } else if (e.state == DirState::Shared) {
            // No pointers, local bit or overflow flag: the sharers
            // are all in the extension, as after a write overflow.
            handleWriteOverflow(ci);
        } else {
            grantExclusive(&ci, e, a, msg.src);
        }
        return;

      case DirState::Exclusive:
        recall(&ci, e, a, msg.src, is_write);
        return;

      case DirState::PendRead:
      case DirState::PendWrite:
      case DirState::SwPendWrite:
        ci.sendBusy(msg.src, is_write);
        return;

      default:
        panic("SwRequest in bad state %s", dirStateName(e.state));
    }
}

} // namespace swex
