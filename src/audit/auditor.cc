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
CoherenceAuditor::setModelStallSummary(std::function<std::string()> fn)
{
    _modelStallSummary = std::move(fn);
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

void
CoherenceAuditor::onBusTransaction(Addr block)
{
    ++_transitions;
    checkSnoopBlock(block);
}

void
CoherenceAuditor::checkSnoopBlock(Addr block)
{
    const NodeId h = _homeOf ? _homeOf(block) : invalidNode;

    NodeId dirtyAt = invalidNode, soleAt = invalidNode,
           forwardAt = invalidNode;
    const CacheLine *first = nullptr;
    NodeId firstAt = invalidNode;
    int copies = 0;

    for (const AuditNodeView &nv : _nodes) {
        if (!nv.cache)
            continue;
        const CacheLine *line = nv.cache->peek(block);
        if (!line || line->state == LineState::Instr)
            continue;
        ++copies;

        if (line->dirty()) {
            if (dirtyAt != invalidNode) {
                report(h, block,
                       strfmt("two dirty copies: nodes %d (%s) and %d "
                              "(%s)",
                              static_cast<int>(dirtyAt), "dirty",
                              static_cast<int>(nv.id),
                              lineStateName(line->state)));
            }
            dirtyAt = nv.id;
        }
        if (line->state == LineState::Modified ||
            line->state == LineState::Exclusive) {
            soleAt = nv.id;
        }
        if (line->state == LineState::Forward) {
            if (forwardAt != invalidNode) {
                report(h, block,
                       strfmt("two Forward copies: nodes %d and %d",
                              static_cast<int>(forwardAt),
                              static_cast<int>(nv.id)));
            }
            forwardAt = nv.id;
        }

        // Every valid copy of a block must hold identical data: the
        // update protocol broadcasts words, the invalidate protocols
        // kill stale copies, and either way divergence is corruption.
        if (!first) {
            first = line;
            firstAt = nv.id;
        } else {
            for (unsigned i = 0; i < wordsPerBlock; ++i) {
                Addr wa = block + i * sizeof(Word);
                if (first->data.read(wa) != line->data.read(wa)) {
                    report(h, block,
                           strfmt("copies diverge: nodes %d and %d "
                                  "disagree on word %u",
                                  static_cast<int>(firstAt),
                                  static_cast<int>(nv.id), i));
                    break;
                }
            }
        }
    }

    if (soleAt != invalidNode && copies > 1) {
        report(h, block,
               strfmt("node %d holds the block in an exclusive state "
                      "but %d copies exist",
                      static_cast<int>(soleAt), copies));
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

std::string
CoherenceAuditor::stallSummary() const
{
    constexpr std::size_t maxLines = 16;
    std::string out;
    if (_modelStallSummary)
        out += _modelStallSummary();
    std::size_t lines = 0, suppressed = 0;
    for (const AuditNodeView &nv : _nodes) {
        if (!nv.home)
            continue;
        nv.home->dir.forEach([&](Addr a, const DirEntry &e) {
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
                          static_cast<int>(nv.id),
                          static_cast<unsigned long long>(a),
                          dirStateName(e.state),
                          static_cast<int>(e.pendingNode), e.ackCount,
                          e.trapPending() ? ", trap queued" : "");
        });
        if (nv.home->deferredCount() != 0) {
            out += strfmt("home %d holds %zu deferred requests\n",
                          static_cast<int>(nv.id),
                          nv.home->deferredCount());
        }
    }
    if (suppressed > 0)
        out += strfmt("(%zu more stalled transactions)\n", suppressed);
    return out;
}

void
CoherenceAuditor::checkQuiescent()
{
    // Snooping machine model: no directories to walk; sweep every
    // block any cache holds through the cross-cache invariant check.
    const bool anyHome = std::any_of(
        _nodes.begin(), _nodes.end(),
        [](const AuditNodeView &nv) { return nv.home != nullptr; });
    if (!anyHome) {
        std::unordered_map<Addr, bool> blocks;
        for (const AuditNodeView &nv : _nodes) {
            if (!nv.cache)
                continue;
            nv.cache->forEachLine([&](const CacheLine &line) {
                if (line.state != LineState::Instr)
                    blocks.emplace(line.blockAddr, true);
            });
        }
        for (const auto &[a, unused] : blocks)
            checkSnoopBlock(a);
        return;
    }

    // Per-entry checks with the quiescent-only extensions, plus
    // drained CMMU input queues.
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
    }

    // Cross-node checks need the address-to-home map and caches.
    if (!_homeOf)
        return;

    std::unordered_map<NodeId, const AuditNodeView *> byId;
    for (const AuditNodeView &nv : _nodes)
        byId[nv.id] = &nv;

    std::unordered_map<Addr, NodeId> dirtyOwner;

    for (const AuditNodeView &nv : _nodes) {
        if (!nv.cache)
            continue;
        nv.cache->forEachLine([&](const CacheLine &line) {
            if (line.state == LineState::Instr)
                return;
            const Addr a = line.blockAddr;
            const NodeId h = _homeOf(a);
            auto it = byId.find(h);
            if (it == byId.end() || !it->second->home)
                return;   // home outside the audited set
            const HomeController &hc = *it->second->home;
            const ProtocolConfig &p = hc.config().protocol;
            const DirEntry *e = hc.dir.lookup(a);

            // H0's uniprocessor mode: until a remote node touches the
            // block, the home's own accesses bypass the directory
            // state machine entirely.
            const bool h0_local_mode =
                p.hwPointers == 0 && nv.id == h &&
                !(e && e->remoteTouched);

            if (line.state == LineState::Modified) {
                auto [pos, fresh] = dirtyOwner.emplace(a, nv.id);
                if (!fresh) {
                    report(h, a,
                           strfmt("two dirty copies: nodes %d and %d "
                                  "both hold the block Modified",
                                  static_cast<int>(pos->second),
                                  static_cast<int>(nv.id)));
                }
                if (!h0_local_mode &&
                    !(e && e->state == DirState::Exclusive &&
                      e->ptrs[0] == nv.id)) {
                    report(h, a,
                           strfmt("node %d holds the block Modified "
                                  "but the directory does not record "
                                  "it as the exclusive owner",
                                  static_cast<int>(nv.id)));
                }
                return;
            }

            // Shared copy: the directory must cover the reader
            // through one of its sharer mechanisms. (Clean evictions
            // are silent, so the directory may be a superset of the
            // caches; it must never be a subset.)
            if (h0_local_mode)
                return;
            bool covered = false;
            if (e && e->state == DirState::Shared) {
                covered = e->fullMap.test(
                              static_cast<std::size_t>(nv.id)) ||
                          e->hasPtr(nv.id) ||
                          (e->localBit && nv.id == h) ||
                          e->broadcastBit;
                if (!covered) {
                    const ExtEntry *xe = hc.ext.lookup(a);
                    covered = xe && xe->hasSharer(nv.id);
                }
            }
            if (!covered) {
                report(h, a,
                       strfmt("node %d holds a readable copy the "
                              "directory does not cover (state %s)",
                              static_cast<int>(nv.id),
                              e ? dirStateName(e->state) : "absent"));
            }
        });
    }
}

} // namespace swex
