/**
 * @file
 * Combined instruction/data direct-mapped cache with an optional
 * victim cache, modeled after the Alewife node: 64 KB direct-mapped
 * with 16-byte lines, plus a small fully-associative victim buffer
 * (implemented in Alewife via the transaction store) that supplies the
 * extra associativity the paper shows is necessary to avoid
 * instruction/data thrashing.
 *
 * Coherence state lives in the lines; a line parked in the victim
 * buffer still holds a valid coherent copy, so invalidations and
 * fetches search both structures.
 */

#ifndef SWEX_MEM_CACHE_HH
#define SWEX_MEM_CACHE_HH

#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "base/stats.hh"
#include "base/types.hh"
#include "mem/block.hh"

namespace swex
{

/**
 * Per-line coherence state. Instr lines are never coherent. The
 * directory machine model uses only {Shared, Modified}; the snooping
 * model additionally uses Exclusive (MESI/MOESI/MESIF/Dragon),
 * Owned (MOESI's O, also Dragon's shared-modified Sm), and Forward
 * (MESIF's clean-forwarder F).
 */
enum class LineState : std::uint8_t
{
    Invalid,
    Shared,     ///< clean, read-only copy
    Modified,   ///< dirty, exclusive copy
    Instr,      ///< instruction line (read-only, non-coherent)
    Exclusive,  ///< clean, sole copy (snooping E)
    Owned,      ///< dirty, shared copy; this cache supplies (O / Sm)
    Forward,    ///< clean, shared copy; designated supplier (MESIF F)
};

const char *lineStateName(LineState s);

/** One cache line. */
struct CacheLine
{
    Addr blockAddr = 0;
    LineState state = LineState::Invalid;
    DataBlock data;

    bool valid() const { return state != LineState::Invalid; }

    /** Holds data newer than home memory (must be written back). */
    bool
    dirty() const
    {
        return state == LineState::Modified ||
               state == LineState::Owned;
    }
};

/** Result of evicting a line to make room. */
struct Eviction
{
    bool valid = false;   ///< a line was displaced out of the cache
    Addr blockAddr = 0;
    bool dirty = false;   ///< displaced line needs a writeback
    DataBlock data;
};

/** Result of removing a block for an invalidation or fetch. */
struct RemovalResult
{
    bool wasPresent = false;
    bool wasDirty = false;
    DataBlock data;
};

/**
 * The cache proper. All timing is charged by the cache controller;
 * this class implements state and replacement only.
 */
class Cache
{
  public:
    /**
     * @param cache_bytes total capacity (power of two)
     * @param victim_entries victim buffer size; 0 disables it
     */
    Cache(unsigned cache_bytes, unsigned victim_entries,
          stats::Group *stats_parent);

    /** Number of direct-mapped sets. */
    unsigned numSets() const { return _numSets; }

    /** Set index for a block address. */
    unsigned
    indexOf(Addr block_addr) const
    {
        return static_cast<unsigned>(
            (block_addr / blockBytes) & (_numSets - 1));
    }

    /** Look up a block in the main array only. */
    CacheLine *probeMain(Addr block_addr);

    /**
     * Full lookup for a processor access. If the block sits in the
     * victim buffer it is swapped back into the main array (the
     * displaced occupant moves to the victim buffer).
     *
     * @param[out] victim_hit set if the access was satisfied by a swap
     * @return the line, or nullptr on miss
     */
    CacheLine *access(Addr block_addr, bool &victim_hit);

    /**
     * Install a block. Displaces the current occupant of the set into
     * the victim buffer (if enabled) or out of the cache.
     *
     * @return eviction record for any line pushed fully out
     */
    Eviction fill(Addr block_addr, LineState state,
                  const DataBlock &data);

    /** Remove a block wherever it lives (invalidation/FetchI). */
    RemovalResult remove(Addr block_addr);

    /** Downgrade Modified -> Shared (FetchS); returns data if dirty. */
    RemovalResult downgrade(Addr block_addr);

    /** True if any valid copy (main or victim) exists. */
    bool holds(Addr block_addr) const;

    /** Non-perturbing lookup across main array and victim buffer. */
    const CacheLine *peek(Addr block_addr) const;

    /**
     * Mutable non-perturbing lookup (no victim swap, no stats):
     * snooping peers change a line's state in place when they observe
     * a bus transaction, wherever the line is parked.
     */
    CacheLine *findLine(Addr block_addr);

    /**
     * Visit every valid line: main-array sets in ascending order,
     * then the victim buffer oldest first. Only sets marked in the
     * filled-set bitmap are looked at, so the walk costs what the
     * run touched, not the cache's capacity.
     */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (std::size_t w = 0; w < _filled.size(); ++w) {
            for (std::uint64_t bits = _filled[w]; bits != 0;
                 bits &= bits - 1) {
                const CacheLine &line =
                    _sets[w * 64 + std::countr_zero(bits)];
                if (line.valid())
                    fn(line);
            }
        }
        for (const auto &line : _victim)
            if (line.valid())
                fn(line);
    }

    /** Victim buffer occupancy (for tests). */
    unsigned victimSize() const { return _victim.size(); }

    /**
     * Flush everything (used when resetting between benchmark runs):
     * clears the filled-set bitmap and the victim buffer, and leaves
     * the sets' storage as it is.
     */
    void flushAll();

    stats::Group statsGroup;
    stats::Scalar dataHits;        ///< data accesses that hit
    stats::Scalar dataMisses;      ///< data accesses that missed
    stats::Scalar instrHits;       ///< instruction fetches that hit
    stats::Scalar instrMisses;     ///< instruction fetches that missed
    stats::Scalar victimHits;      ///< accesses served by the victim buffer
    stats::Scalar evictions;       ///< lines pushed out of the node
    stats::Scalar dirtyEvictions;  ///< evictions that needed a writeback

  private:
    Eviction pushToVictim(const CacheLine &line);

    /** Record that set @p index has held a line. */
    void
    markFilled(unsigned index)
    {
        _filled[index / 64] |= std::uint64_t{1} << (index % 64);
    }

    /** True if a line was written into set @p index since the last
     *  flushAll; only then may the set's storage be read. */
    bool
    isFilled(unsigned index) const
    {
        return (_filled[index / 64] >> (index % 64)) & 1;
    }

    /** Set @p index holds a valid copy of @p block_addr. */
    bool
    setHolds(unsigned index, Addr block_addr) const
    {
        const CacheLine &line = _sets[index];
        return isFilled(index) && line.valid() &&
               line.blockAddr == block_addr;
    }

    /** Frees the sets' storage without running any destructor. */
    struct FreeStorage
    {
        void operator()(CacheLine *p) const { ::operator delete(p); }
    };

    static_assert(std::is_aggregate_v<CacheLine> &&
                      std::is_trivially_copyable_v<CacheLine>,
                  "lines live in storage operator new returns");
    static_assert(alignof(CacheLine) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "operator new must align the sets");

    unsigned _numSets;
    unsigned _victimEntries;

    /**
     * The sets, allocated and never initialised: a machine pays for
     * the sets its run fills, and the pages of sets it never fills
     * are never touched. Every read of a set is gated by its bit in
     * _filled, so storage no line was written into is never read.
     */
    std::unique_ptr<CacheLine[], FreeStorage> _sets;
    std::deque<CacheLine> _victim;   ///< FIFO, front = oldest

    /**
     * One bit per set, set by every path that installs a line into
     * it (fill, victim swap-back) and cleared only by flushAll. A
     * clear bit means the set is invalid, whatever its storage
     * holds; a set bit may still hold an invalidated line, which
     * every lookup and forEachLine skip.
     */
    std::vector<std::uint64_t> _filled;
};

} // namespace swex

#endif // SWEX_MEM_CACHE_HH
