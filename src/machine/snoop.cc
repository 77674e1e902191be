#include "machine/snoop.hh"

#include <algorithm>

#include "audit/auditor.hh"
#include "base/logging.hh"
#include "machine/machine.hh"
#include "machine/node.hh"

namespace swex
{

// ---------------------------------------------------------------------
// SnoopNodeCoherence
// ---------------------------------------------------------------------

SnoopNodeCoherence::SnoopNodeCoherence(Node &node, SnoopBackend &backend,
                                       const MachineConfig &mc)
    : NodeCoherence(node, mc.victimEntries),
      busRequests(&statsGroup, "busRequests"),
      _backend(backend)
{
    statsGroup.addStat(&missLatency);
}

void
SnoopNodeCoherence::startMiss()
{
    ++busRequests;
    _backend.requestBus(_node.id(), blockAlign(mshr.addr));
}

void
SnoopNodeCoherence::writeback(const Eviction &ev)
{
    _backend.memWrite(ev.blockAddr, ev.data);
    _backend.requestWriteback(_node.id(), ev.blockAddr);
}

Cycles
SnoopNodeCoherence::serviceAtBus(const BusTxn &t)
{
    SnoopBackend &b = _backend;

    if (t.writeback) {
        ++b.writebacks;
        return busAddrCycles + busDataCycles;
    }

    SWEX_ASSERT(mshr.valid && blockAlign(mshr.addr) == t.blockAddr,
                "bus grant with no matching transaction");
    const Addr addr = mshr.addr;
    const Addr baddr = t.blockAddr;
    const SnoopProtocol proto = b.protocol();
    const bool isLoad = mshr.type == MemOpType::Load;
    const bool isAtomic = mshr.type == MemOpType::FetchAdd ||
                          mshr.type == MemOpType::Swap;
    // Dragon stores broadcast the word; Dragon atomics are modeled as
    // invalidating read-modify-writes like every other protocol.
    const bool dragonUpd =
        proto == SnoopProtocol::Dragon && !isLoad && !isAtomic;

    // Snoop phase: every peer observes the transaction now, in
    // node-id order (the serialization point).
    struct PeerHit
    {
        SnoopNodeCoherence *c;
        CacheLine *l;
    };
    std::vector<PeerHit> peers;
    b.forEachPeer(_node.id(), [&](SnoopNodeCoherence &p) {
        CacheLine *pl = p.cache().findLine(baddr);
        if (pl && pl->state != LineState::Instr)
            peers.push_back({&p, pl});
    });
    const bool any = !peers.empty();

    CacheLine *dirtyL = nullptr;
    for (auto &ph : peers) {
        if (ph.l->dirty()) {
            dirtyL = ph.l;
            break;   // single-owner invariant: at most one dirty copy
        }
    }

    CacheLine *own = cache().findLine(baddr);
    bool hasData = false, hasUpd = false, cacheSupply = false;
    Word value = 0;

    if (isLoad) {
        ++b.reads;
        hasData = true;
        DataBlock data;
        if (dirtyL) {
            data = dirtyL->data;
            cacheSupply = true;
        } else if (proto == SnoopProtocol::Mesif && any) {
            // The clean forwarder (F, else a sole E copy) supplies.
            CacheLine *sup = nullptr;
            for (auto &ph : peers) {
                if (ph.l->state == LineState::Forward) {
                    sup = ph.l;
                    break;
                }
            }
            if (!sup) {
                for (auto &ph : peers) {
                    if (ph.l->state == LineState::Exclusive) {
                        sup = ph.l;
                        break;
                    }
                }
            }
            if (sup) {
                data = sup->data;
                cacheSupply = true;
            } else {
                data = b.memRead(baddr);
            }
        } else {
            data = b.memRead(baddr);
        }

        for (auto &ph : peers) {
            CacheLine *pl = ph.l;
            switch (proto) {
              case SnoopProtocol::Mesi:
              case SnoopProtocol::Mesif:
                // No owned state: a dirty supplier also updates memory.
                if (pl->dirty())
                    b.memWrite(baddr, pl->data);
                pl->state = LineState::Shared;
                break;
              case SnoopProtocol::Moesi:
              case SnoopProtocol::Dragon:
                // The dirty copy keeps ownership (O / Sm); memory
                // stays stale until the owner is evicted.
                if (pl->state == LineState::Modified)
                    pl->state = LineState::Owned;
                else if (pl->state == LineState::Exclusive)
                    pl->state = LineState::Shared;
                break;
            }
        }

        LineState mine =
            !any ? LineState::Exclusive
                 : (proto == SnoopProtocol::Mesif ? LineState::Forward
                                                  : LineState::Shared);
        fill(baddr, mine, data);
        value = cache().probeMain(baddr)->data.read(addr);
    } else if (dragonUpd) {
        if (own) {
            // BusUpd: broadcast the word; the writer becomes (or
            // stays) the owner, any previous owner demotes to Sc.
            ++b.updates;
            hasUpd = true;
            for (auto &ph : peers) {
                ph.l->data.write(addr, mshr.operand);
                if (ph.l->state != LineState::Shared)
                    ph.l->state = LineState::Shared;
                ++b.wordUpdates;
            }
            value = applyOp(*own, mshr.type, addr, mshr.operand);
            own->state = any ? LineState::Owned : LineState::Modified;
        } else {
            // Write miss: fetch the block and broadcast the word in
            // one transaction (BusRd + BusUpd phases).
            ++b.reads;
            hasData = true;
            DataBlock data;
            if (dirtyL) {
                data = dirtyL->data;
                cacheSupply = true;
            } else {
                data = b.memRead(baddr);
            }
            for (auto &ph : peers) {
                ph.l->data.write(addr, mshr.operand);
                if (ph.l->state != LineState::Shared)
                    ph.l->state = LineState::Shared;
                ++b.wordUpdates;
            }
            if (any) {
                ++b.updates;
                hasUpd = true;
            }
            data.write(addr, mshr.operand);
            fill(baddr, any ? LineState::Owned : LineState::Modified,
                 data);
            value = 0;
        }
    } else {
        // Invalidating write path: BusUpgr when we still hold a
        // readable copy, else BusRdX. A queued upgrade whose copy was
        // invalidated by an earlier transaction converts here.
        if (own) {
            ++b.upgrades;
            for (auto &ph : peers) {
                ph.c->invalidateLocal(baddr);
                ++b.invalidations;
            }
            value = applyOp(*own, mshr.type, addr, mshr.operand);
            own->state = LineState::Modified;
        } else {
            ++b.readExcl;
            hasData = true;
            DataBlock data;
            if (dirtyL) {
                // Ownership transfers cache-to-cache; memory is not
                // updated (the requester becomes the dirty owner).
                data = dirtyL->data;
                cacheSupply = true;
            } else {
                data = b.memRead(baddr);
            }
            for (auto &ph : peers) {
                ph.c->invalidateLocal(baddr);
                ++b.invalidations;
            }
            fill(baddr, LineState::Modified, data);
            value = applyOp(*cache().probeMain(baddr), mshr.type,
                            addr, mshr.operand);
        }
    }

    if (cacheSupply)
        ++b.cacheSupplies;
    else if (hasData)
        ++b.memSupplies;

    Cycles occupancy = busAddrCycles + (hasData ? busDataCycles : 0) +
                       (hasUpd ? busUpdCycles : 0);
    Cycles supplier = hasData ? (cacheSupply ? c2cLatency : memLatency) : 0;
    finishMiss(value, occupancy + supplier + fillLatency);
    return occupancy;
}

// ---------------------------------------------------------------------
// SnoopBackend
// ---------------------------------------------------------------------

SnoopBackend::SnoopBackend(Machine &m)
    : statsGroup(&m.root, "bus"),
      transactions(&statsGroup, "transactions"),
      reads(&statsGroup, "reads"),
      readExcl(&statsGroup, "readExcl"),
      upgrades(&statsGroup, "upgrades"),
      updates(&statsGroup, "updates"),
      writebacks(&statsGroup, "writebacks"),
      invalidations(&statsGroup, "invalidations"),
      wordUpdates(&statsGroup, "wordUpdates"),
      cacheSupplies(&statsGroup, "cacheSupplies"),
      memSupplies(&statsGroup, "memSupplies"),
      _m(m), _proto(m.config().snoopProtocol),
      _arbitration(m.config().busArbitration)
{
    _ctrls.resize(static_cast<std::size_t>(m.config().numNodes),
                  nullptr);
}

std::string
SnoopBackend::protocolName() const
{
    return snoopProtocolName(_proto);
}

std::unique_ptr<NodeCoherence>
SnoopBackend::makeNode(Node &node)
{
    auto nc =
        std::make_unique<SnoopNodeCoherence>(node, *this, _m.config());
    _ctrls[static_cast<std::size_t>(node.id())] = nc.get();
    return nc;
}

std::uint64_t
SnoopBackend::trafficMessages() const
{
    return static_cast<std::uint64_t>(transactions.value());
}

const DataBlock &
SnoopBackend::memRead(Addr block_addr) const
{
    return _m.nodes[static_cast<std::size_t>(_m.homeOf(block_addr))]
        ->mem.readBlock(block_addr);
}

void
SnoopBackend::memWrite(Addr block_addr, const DataBlock &data)
{
    _m.nodes[static_cast<std::size_t>(_m.homeOf(block_addr))]
        ->mem.writeBlock(block_addr, data);
}

void
SnoopBackend::requestBus(NodeId node, Addr block_addr)
{
    _queue.push_back({node, false, block_addr, _nextSeq++});
    scheduleArb();
}

void
SnoopBackend::requestWriteback(NodeId node, Addr block_addr)
{
    _queue.push_back({node, true, block_addr, _nextSeq++});
    scheduleArb();
}

void
SnoopBackend::scheduleArb()
{
    if (_inService || _arbEvent.scheduled() || _queue.empty())
        return;
    Tick at = std::max(_m.eventq.curTick(), _freeAt);
    _m.eventq.schedule(_arbEvent, at);
}

std::size_t
SnoopBackend::pickNext() const
{
    if (_arbitration == BusArbitration::Fifo || _queue.size() == 1)
        return 0;
    // Round-robin over requesting nodes: grant the queued transaction
    // whose node id has the smallest cyclic distance past the last
    // grant; ties (same node) fall back to arrival order.
    const int n = _m.config().numNodes;
    const int last = _lastGranted == invalidNode
                         ? n - 1
                         : static_cast<int>(_lastGranted);
    std::size_t best = 0;
    int bestDist = n + 1;
    for (std::size_t i = 0; i < _queue.size(); ++i) {
        int dist =
            (static_cast<int>(_queue[i].node) - last - 1 + n) % n;
        if (dist < bestDist) {
            bestDist = dist;
            best = i;
        }
    }
    return best;
}

void
SnoopBackend::arbitrate()
{
    SWEX_ASSERT(!_queue.empty(), "bus arbitration with empty queue");
    std::size_t i = pickNext();
    BusTxn t = _queue[i];
    _queue.erase(_queue.begin() +
                 static_cast<std::deque<BusTxn>::difference_type>(i));
    _lastGranted = t.node;

    // Service inside a guard: a dirty eviction during the fill
    // enqueues a writeback, which must not re-arm arbitration until
    // the occupancy below is known.
    _inService = true;
    Cycles occupancy =
        _ctrls[static_cast<std::size_t>(t.node)]->serviceAtBus(t);
    _inService = false;

    ++transactions;
    _freeAt = _m.eventq.curTick() + occupancy;

    if (_auditor && !t.writeback)
        _auditor->onBusTransaction(t.blockAddr);

    scheduleArb();
}

void
SnoopBackend::attachAuditor(CoherenceAuditor *a)
{
    _auditor = a;
}

std::string
SnoopBackend::stallSummary() const
{
    if (_queue.empty())
        return {};
    constexpr std::size_t maxLines = 8;
    std::string out = strfmt("bus holds %zu queued transactions\n",
                             _queue.size());
    std::size_t lines = 0;
    for (const BusTxn &t : _queue) {
        if (++lines > maxLines)
            break;
        out += strfmt("  node %d %s block %#llx\n",
                      static_cast<int>(t.node),
                      t.writeback ? "writeback" : "demand",
                      static_cast<unsigned long long>(t.blockAddr));
    }
    return out;
}

void
SnoopBackend::auditQuiescent(CoherenceAuditor &a) const
{
    for (const BusTxn &t : _queue) {
        a.modelViolation(t.node, t.blockAddr,
                         strfmt("%s transaction still queued at "
                                "quiescence",
                                t.writeback ? "writeback" : "demand"));
    }
    for (std::size_t i = 0; i < _ctrls.size(); ++i) {
        if (_ctrls[i] && _ctrls[i]->missOutstanding()) {
            a.modelViolation(static_cast<NodeId>(i), 0,
                             "MSHR still valid at quiescence");
        }
    }
}

} // namespace swex
