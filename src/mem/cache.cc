#include "mem/cache.hh"

#include <algorithm>

#include "base/intmath.hh"
#include "base/logging.hh"

namespace swex
{

const char *
lineStateName(LineState s)
{
    switch (s) {
      case LineState::Invalid: return "Invalid";
      case LineState::Shared: return "Shared";
      case LineState::Modified: return "Modified";
      case LineState::Instr: return "Instr";
      case LineState::Exclusive: return "Exclusive";
      case LineState::Owned: return "Owned";
      case LineState::Forward: return "Forward";
    }
    return "?";
}

Cache::Cache(unsigned cache_bytes, unsigned victim_entries,
             stats::Group *stats_parent)
    : statsGroup(stats_parent, "cache"),
      dataHits(&statsGroup, "dataHits"),
      dataMisses(&statsGroup, "dataMisses"),
      instrHits(&statsGroup, "instrHits"),
      instrMisses(&statsGroup, "instrMisses"),
      victimHits(&statsGroup, "victimHits"),
      evictions(&statsGroup, "evictions"),
      dirtyEvictions(&statsGroup, "dirtyEvictions"),
      _victimEntries(victim_entries)
{
    SWEX_ASSERT(isPowerOf2(cache_bytes) && cache_bytes >= blockBytes,
                "cache size must be a power of two");
    _numSets = cache_bytes / blockBytes;
    _sets.reset(static_cast<CacheLine *>(
        ::operator new(sizeof(CacheLine) * _numSets)));
    _filled.resize((_numSets + 63) / 64);
}

CacheLine *
Cache::probeMain(Addr block_addr)
{
    const unsigned index = indexOf(block_addr);
    return setHolds(index, block_addr) ? &_sets[index] : nullptr;
}

CacheLine *
Cache::access(Addr block_addr, bool &victim_hit)
{
    victim_hit = false;
    if (CacheLine *line = probeMain(block_addr))
        return line;

    for (auto it = _victim.begin(); it != _victim.end(); ++it) {
        if (it->blockAddr == block_addr && it->valid()) {
            // Swap the victim line back into its set; the displaced
            // occupant takes its place in the victim buffer.
            victim_hit = true;
            CacheLine incoming = *it;
            _victim.erase(it);
            const unsigned index = indexOf(block_addr);
            CacheLine &slot = _sets[index];
            if (isFilled(index) && slot.valid())
                _victim.push_back(slot);
            slot = incoming;
            markFilled(index);
            return &slot;
        }
    }
    return nullptr;
}

Eviction
Cache::pushToVictim(const CacheLine &line)
{
    Eviction ev;
    if (_victimEntries == 0) {
        ev.valid = true;
        ev.blockAddr = line.blockAddr;
        ev.dirty = line.dirty();
        ev.data = line.data;
        return ev;
    }
    _victim.push_back(line);
    if (_victim.size() > _victimEntries) {
        CacheLine oldest = _victim.front();
        _victim.pop_front();
        ev.valid = true;
        ev.blockAddr = oldest.blockAddr;
        ev.dirty = oldest.dirty();
        ev.data = oldest.data;
    }
    return ev;
}

Eviction
Cache::fill(Addr block_addr, LineState state, const DataBlock &data)
{
    SWEX_ASSERT(state != LineState::Invalid, "filling an invalid line");
    SWEX_ASSERT(block_addr == blockAlign(block_addr),
                "fill address not block aligned");

    const unsigned index = indexOf(block_addr);
    CacheLine &slot = _sets[index];
    Eviction ev;
    if (isFilled(index) && slot.valid() && slot.blockAddr != block_addr)
        ev = pushToVictim(slot);

    if (ev.valid) {
        ++evictions;
        if (ev.dirty)
            ++dirtyEvictions;
    }

    slot.blockAddr = block_addr;
    slot.state = state;
    slot.data = data;
    markFilled(index);
    return ev;
}

RemovalResult
Cache::remove(Addr block_addr)
{
    RemovalResult res;
    if (CacheLine *slot = probeMain(block_addr)) {
        res.wasPresent = true;
        res.wasDirty = slot->dirty();
        res.data = slot->data;
        slot->state = LineState::Invalid;
        return res;
    }
    for (auto it = _victim.begin(); it != _victim.end(); ++it) {
        if (it->valid() && it->blockAddr == block_addr) {
            res.wasPresent = true;
            res.wasDirty = it->dirty();
            res.data = it->data;
            _victim.erase(it);
            return res;
        }
    }
    return res;
}

RemovalResult
Cache::downgrade(Addr block_addr)
{
    RemovalResult res;
    CacheLine *line = probeMain(block_addr);
    if (!line) {
        for (auto &vl : _victim)
            if (vl.valid() && vl.blockAddr == block_addr)
                line = &vl;
    }
    if (!line)
        return res;
    res.wasPresent = true;
    res.wasDirty = line->dirty();
    res.data = line->data;
    if (line->state == LineState::Modified)
        line->state = LineState::Shared;
    return res;
}

CacheLine *
Cache::findLine(Addr block_addr)
{
    if (CacheLine *line = probeMain(block_addr))
        return line;
    for (auto &line : _victim)
        if (line.valid() && line.blockAddr == block_addr)
            return &line;
    return nullptr;
}

const CacheLine *
Cache::peek(Addr block_addr) const
{
    const unsigned index = indexOf(block_addr);
    if (setHolds(index, block_addr))
        return &_sets[index];
    for (const auto &line : _victim)
        if (line.valid() && line.blockAddr == block_addr)
            return &line;
    return nullptr;
}

bool
Cache::holds(Addr block_addr) const
{
    return peek(block_addr) != nullptr;
}

void
Cache::flushAll()
{
    _victim.clear();
    std::fill(_filled.begin(), _filled.end(), 0);
}

} // namespace swex
