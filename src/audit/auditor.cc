#include "audit/auditor.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"
#include "core/directory.hh"
#include "core/ext_directory.hh"
#include "core/home_controller.hh"
#include "mem/cache.hh"

namespace swex
{

std::string
AuditViolation::describe() const
{
    return strfmt("home %d block %#llx: %s", static_cast<int>(home),
                  static_cast<unsigned long long>(block), what.c_str());
}

void
CoherenceAuditor::addNode(const AuditNodeView &view)
{
    SWEX_ASSERT(view.home != nullptr || view.cache != nullptr,
                "audit node view needs a home controller or a cache");
    _nodes.push_back(view);
}

void
CoherenceAuditor::setHomeOf(std::function<NodeId(Addr)> fn)
{
    _homeOf = std::move(fn);
}

void
CoherenceAuditor::report(NodeId home, Addr block, std::string what)
{
    if (_mode == Mode::Panic) {
        panic("coherence audit: home %d block %#llx: %s",
              static_cast<int>(home),
              static_cast<unsigned long long>(block), what.c_str());
    }
    ++_violationCount;
    if (_violations.size() < maxStoredViolations)
        _violations.push_back({home, block, std::move(what)});
}

std::int64_t
CoherenceAuditor::outstandingInvs(Addr block) const
{
    auto it = _outstanding.find(block);
    return it == _outstanding.end() ? 0 : it->second;
}

void
CoherenceAuditor::onInvSent(NodeId, Addr block)
{
    ++_outstanding[block];
}

void
CoherenceAuditor::onInvAckCounted(NodeId home, Addr block)
{
    std::int64_t &n = _outstanding[block];
    --n;
    if (n < 0) {
        report(home, block,
               "acknowledgment counted with no invalidation outstanding");
        n = 0;
    }
}

void
CoherenceAuditor::onHomeTransition(const HomeController &hc, Addr block)
{
    ++_transitions;
    const DirEntry *e = hc.dir.lookup(block);
    if (e)
        checkEntry(hc, block, *e, /*quiescent=*/false);
}

void
CoherenceAuditor::checkEntry(const HomeController &hc, Addr block,
                             const DirEntry &e, bool quiescent)
{
    const ProtocolConfig &p = hc.config().protocol;
    const NodeId home = hc.homeNode();

    // Annotation bits must be legal for the protocol point.
    if (e.localBit && !p.localBit) {
        report(home, block,
               "local bit set but the protocol has no local-bit pointer");
    }
    if (e.broadcastBit) {
        if (!p.swBroadcast) {
            report(home, block, "broadcast bit set but the protocol "
                                "never resorts to broadcast");
        }
        if (e.state != DirState::Shared) {
            report(home, block,
                   strfmt("broadcast bit set in state %s",
                          dirStateName(e.state)));
        }
    }
    if (e.overflowed) {
        if (p.swBroadcast || p.hwPointers <= 0) {
            report(home, block, "overflowed bit set but the protocol "
                                "has no software directory extension");
        }
        if (e.state != DirState::Shared) {
            report(home, block,
                   strfmt("overflowed bit set in state %s",
                          dirStateName(e.state)));
        } else if (!hc.ext.lookup(block)) {
            report(home, block, "overflowed bit set but no "
                                "extended-directory entry exists");
        }
    }

    // Pointer-count discipline: owner states use exactly ptrs[0]; in
    // every other state the explicit pointers are capped by the
    // hardware (full-map keeps sharers in the bit vector instead).
    const bool owner_state = e.state == DirState::Exclusive ||
                             e.state == DirState::PendRead;
    const int ptr_cap =
        owner_state ? 1 : (p.isFullMap() ? 0 : std::max(p.hwPointers, 0));
    if (e.ptrCount > ptr_cap) {
        report(home, block,
               strfmt("%u hardware pointers recorded; at most %d legal "
                      "in state %s",
                      static_cast<unsigned>(e.ptrCount), ptr_cap,
                      dirStateName(e.state)));
    }

    // The single-writer property at the directory: an owner state
    // names exactly one node and carries no sharer annotations.
    if (owner_state) {
        if (e.ptrCount != 1 || e.ptrs[0] == invalidNode) {
            report(home, block,
                   strfmt("state %s without exactly one owner pointer",
                          dirStateName(e.state)));
        }
        if (e.localBit || e.broadcastBit || e.overflowed ||
            e.fullMap.any()) {
            report(home, block,
                   strfmt("sharer annotations survive in state %s",
                          dirStateName(e.state)));
        }
    }

    // Ack-counter discipline, cross-checked against the invalidations
    // this auditor actually saw leave the home.
    switch (e.state) {
      case DirState::Uncached:
      case DirState::Shared:
      case DirState::Exclusive:
        if (e.ackCount != 0) {
            report(home, block,
                   strfmt("ackCount %u in terminal state %s",
                          e.ackCount, dirStateName(e.state)));
        }
        break;
      case DirState::PendRead:
        if (e.pendingNode == invalidNode) {
            report(home, block, "PendRead with no pending requester");
        }
        if (!quiescent && !e.fetchOutstanding && !e.trapPending()) {
            report(home, block,
                   "PendRead with no fetch outstanding and no trap "
                   "queued: the transaction can never complete");
        }
        break;
      case DirState::PendWrite:
      case DirState::SwPendWrite: {
        if (e.pendingNode == invalidNode || !e.pendingIsWrite) {
            report(home, block,
                   strfmt("%s without a pending writer",
                          dirStateName(e.state)));
        }
        std::int64_t outstanding = outstandingInvs(block);
        if (static_cast<std::int64_t>(e.ackCount) != outstanding) {
            report(home, block,
                   strfmt("ackCount %u but %lld invalidations actually "
                          "outstanding",
                          e.ackCount,
                          static_cast<long long>(outstanding)));
        }
        if (e.ackCount == 0 && !e.trapPending()) {
            report(home, block,
                   strfmt("%s with every acknowledgment in and no "
                          "completion trap queued: the writer is "
                          "stalled forever",
                          dirStateName(e.state)));
        }
        if (e.state == DirState::SwPendWrite &&
            p.ackMode != AckMode::EveryAck) {
            report(home, block, "SwPendWrite under a protocol whose "
                                "acks are counted in hardware");
        }
        break;
      }
    }

    // The software-send flag only means something to a LACK write
    // transaction; anywhere else it would corrupt a later grant.
    if (e.pendingSwSend &&
        (e.state != DirState::PendWrite ||
         p.ackMode != AckMode::LastAck)) {
        report(home, block,
               strfmt("pendingSwSend set in state %s under ack mode "
                      "that never traps on the last ack",
                      dirStateName(e.state)));
    }

    if (quiescent) {
        if (e.state != DirState::Uncached &&
            e.state != DirState::Shared &&
            e.state != DirState::Exclusive) {
            report(home, block,
                   strfmt("transient state %s at quiescence: a busy "
                          "transaction never drained",
                          dirStateName(e.state)));
        }
        if (e.trapPending()) {
            report(home, block,
                   strfmt("%u traps still queued at quiescence",
                          e.trapsQueued));
        }
        if (e.fetchOutstanding) {
            report(home, block, "fetch still outstanding at quiescence");
        }
        if (outstandingInvs(block) != 0) {
            report(home, block,
                   strfmt("%lld invalidations unacknowledged at "
                          "quiescence",
                          static_cast<long long>(
                              outstandingInvs(block))));
        }
    }
}

void
CoherenceAuditor::modelViolation(NodeId node, Addr block,
                                 const std::string &what)
{
    report(node, block, what);
}

NodeId
CoherenceAuditor::homeOf(Addr block) const
{
    return _homeOf ? _homeOf(block) : invalidNode;
}

void
CoherenceAuditor::onBusTransaction(Addr block)
{
    ++_transitions;
    _copies.clear();
    for (const AuditNodeView &nv : _nodes) {
        const CacheLine *line = nv.cache ? nv.cache->peek(block) : nullptr;
        if (line && line->state != LineState::Instr)
            _copies.push_back({block, nv.id, line});
    }
    if (!_copies.empty())
        checkCopies(homeOf(block), _copies);
}

void
CoherenceAuditor::checkCopies(NodeId home, std::span<const Copy> copies)
{
    const Addr block = copies.front().block;
    const CacheLine &first = *copies.front().line;
    const Copy *dirty = nullptr, *sole = nullptr, *forward = nullptr;

    for (const Copy &c : copies) {
        const LineState s = c.line->state;
        if (c.line->dirty()) {
            if (dirty) {
                report(home, block,
                       strfmt("two dirty copies: nodes %d (%s) and %d "
                              "(%s)",
                              static_cast<int>(dirty->node),
                              lineStateName(dirty->line->state),
                              static_cast<int>(c.node),
                              lineStateName(s)));
            }
            dirty = &c;
        }
        if (s == LineState::Modified || s == LineState::Exclusive)
            sole = &c;
        if (s == LineState::Forward) {
            if (forward) {
                report(home, block,
                       strfmt("two Forward copies: nodes %d and %d",
                              static_cast<int>(forward->node),
                              static_cast<int>(c.node)));
            }
            forward = &c;
        }

        // Every valid copy of a block must hold identical data: the
        // update protocol broadcasts words, the invalidate protocols
        // kill stale copies, and either way divergence is corruption.
        for (unsigned w = 0; w < wordsPerBlock; ++w) {
            if (c.line->data.words[w] != first.data.words[w]) {
                report(home, block,
                       strfmt("copies diverge: nodes %d and %d "
                              "disagree on word %u",
                              static_cast<int>(copies.front().node),
                              static_cast<int>(c.node), w));
                break;
            }
        }
    }

    if (sole && copies.size() > 1) {
        report(home, block,
               strfmt("node %d holds the block in an exclusive state "
                      "but %zu copies exist",
                      static_cast<int>(sole->node), copies.size()));
    }
}

void
CoherenceAuditor::checkCoverage(const HomeController &hc,
                                std::span<const Copy> copies)
{
    const NodeId h = hc.homeNode();
    const Addr block = copies.front().block;
    const ProtocolConfig &p = hc.config().protocol;
    const DirEntry *e = hc.dir.lookup(block);

    for (const Copy &c : copies) {
        // H0's uniprocessor mode: until a remote node touches the
        // block, the home's own accesses bypass the directory state
        // machine entirely.
        const bool h0_local_mode = p.hwPointers == 0 && c.node == h &&
                                   !(e && e->remoteTouched);

        if (c.line->state == LineState::Modified) {
            if (!h0_local_mode &&
                !(e && e->state == DirState::Exclusive &&
                  e->ptrs[0] == c.node)) {
                report(h, block,
                       strfmt("node %d holds the block Modified but the "
                              "directory does not record it as the "
                              "exclusive owner",
                              static_cast<int>(c.node)));
            }
            continue;
        }

        // Shared copy: the directory must cover the reader through
        // one of its sharer mechanisms. (Clean evictions are silent,
        // so the directory may be a superset of the caches; it must
        // never be a subset.)
        if (h0_local_mode)
            continue;
        bool covered = false;
        if (e && e->state == DirState::Shared) {
            covered = e->fullMap.test(static_cast<std::size_t>(c.node)) ||
                      e->hasPtr(c.node) || (e->localBit && c.node == h) ||
                      e->broadcastBit;
            if (!covered) {
                const ExtEntry *xe = hc.ext.lookup(block);
                covered = xe && xe->hasSharer(c.node);
            }
        }
        if (!covered) {
            report(h, block,
                   strfmt("node %d holds a readable copy the directory "
                          "does not cover (state %s)",
                          static_cast<int>(c.node),
                          e ? dirStateName(e->state) : "absent"));
        }
    }
}

void
CoherenceAuditor::deliveryViolation(NodeId src, NodeId dst,
                                    const std::string &what)
{
    report(src, 0,
           strfmt("delivery channel %d->%d: %s", static_cast<int>(src),
                  static_cast<int>(dst), what.c_str()));
}

void
CoherenceAuditor::checkQuiescent()
{
    // Per-entry checks with the quiescent-only extensions, plus
    // drained CMMU input queues.
    std::vector<const HomeController *> homes;   // indexed by node id
    for (const AuditNodeView &nv : _nodes) {
        if (!nv.home)
            continue;
        nv.home->dir.forEach([&](Addr a, const DirEntry &e) {
            checkEntry(*nv.home, a, e, /*quiescent=*/true);
        });
        if (nv.home->deferredCount() != 0) {
            report(nv.id, 0,
                   strfmt("%zu deferred requests never replayed",
                          nv.home->deferredCount()));
        }
        const auto id = static_cast<std::size_t>(nv.id);
        homes.resize(std::max(homes.size(), id + 1), nullptr);
        homes[id] = nv.home;
    }

    // Every node's data copies in one pass, sorted by block so each
    // block's copies are adjacent, and in node order within a block.
    _copies.clear();
    for (const AuditNodeView &nv : _nodes) {
        if (!nv.cache)
            continue;
        nv.cache->forEachLine([&](const CacheLine &line) {
            if (line.state != LineState::Instr)
                _copies.push_back({line.blockAddr, nv.id, &line});
        });
    }
    std::stable_sort(_copies.begin(), _copies.end(),
                     [](const Copy &x, const Copy &y) {
                         return x.block < y.block;
                     });

    for (auto first = _copies.begin(); first != _copies.end();) {
        const Addr block = first->block;
        const auto last =
            std::find_if(first, _copies.end(), [block](const Copy &c) {
                return c.block != block;
            });
        const std::span<const Copy> copies(first, last);
        const NodeId h = homeOf(block);
        checkCopies(h, copies);
        // (An unknown home, invalidNode, casts past the end.)
        const auto hi = static_cast<std::size_t>(h);
        if (hi < homes.size() && homes[hi])
            checkCoverage(*homes[hi], copies);
        first = last;
    }
}

} // namespace swex
