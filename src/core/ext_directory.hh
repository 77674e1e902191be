/**
 * @file
 * The software-extended directory: the data structures the protocol
 * extension software maintains when the hardware pointers overflow.
 * Mirrors the Alewife kernel implementation described in Section 4:
 * a free-list memory manager handing out fixed-size pointer chunks,
 * chained per block, reached through an open hash table keyed by
 * block address.
 */

#ifndef SWEX_CORE_EXT_DIRECTORY_HH
#define SWEX_CORE_EXT_DIRECTORY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/logging.hh"
#include "base/stats.hh"
#include "base/types.hh"

namespace swex
{

/** A chunk of extended-directory pointers from the free list. */
struct ExtChunk
{
    static constexpr unsigned fanout = 14;

    std::array<NodeId, fanout> ids;
    std::uint8_t count = 0;
    ExtChunk *next = nullptr;
};

/** Per-block extended directory entry. */
struct ExtEntry
{
    Addr blockAddr = 0;
    ExtChunk *head = nullptr;   ///< chain of sharer chunks
    std::uint16_t sharerCount = 0;
    ExtEntry *hashNext = nullptr;

    bool
    hasSharer(NodeId n) const
    {
        for (const ExtChunk *c = head; c; c = c->next)
            for (unsigned i = 0; i < c->count; ++i)
                if (c->ids[i] == n)
                    return true;
        return false;
    }
};

/**
 * The extension software's directory for one node. Storage discipline
 * follows the real system: chunks and entries are free-listed, never
 * returned to the heap, so steady-state handler work allocates
 * nothing.
 */
class ExtDirectory
{
  public:
    explicit ExtDirectory(stats::Group *stats_parent);
    ~ExtDirectory();

    ExtDirectory(const ExtDirectory &) = delete;
    ExtDirectory &operator=(const ExtDirectory &) = delete;

    /** Hash-table lookup; nullptr when the block has no entry. */
    ExtEntry *lookup(Addr block_addr);

    /** Read-only lookup (invariant checks and the auditor). */
    const ExtEntry *
    lookup(Addr block_addr) const
    {
        return const_cast<ExtDirectory *>(this)->lookup(block_addr);
    }

    /** Lookup-or-create. */
    ExtEntry &alloc(Addr block_addr);

    /** Release an entry and its chunks back to the free lists. */
    void release(Addr block_addr);

    /** Record a sharer (no-op if already recorded). */
    void addSharer(ExtEntry &entry, NodeId n);

    /** Visit every recorded sharer. */
    template <typename Fn>
    void
    forEachSharer(const ExtEntry &entry, Fn &&fn) const
    {
        for (const ExtChunk *c = entry.head; c; c = c->next)
            for (unsigned i = 0; i < c->count; ++i)
                fn(c->ids[i]);
    }

    /** Number of live entries (for invariant checks). */
    std::size_t numEntries() const { return _numEntries; }

    stats::Group statsGroup;
    stats::Scalar entriesAllocated;  ///< extended entries allocated
    stats::Scalar entriesReleased;   ///< extended entries released
    stats::Scalar chunksAllocated;   ///< pointer chunks allocated
    stats::Scalar sharersRecorded;   ///< sharers recorded in software

  private:
    static constexpr std::size_t numBuckets = 1021;   // prime

    std::size_t bucketOf(Addr a) const;
    ExtChunk *allocChunk();
    void freeChunkChain(ExtChunk *head);
    ExtEntry *allocEntryNode();

    std::array<ExtEntry *, numBuckets> buckets{};
    std::size_t _numEntries = 0;

    ExtChunk *chunkFreeList = nullptr;
    ExtEntry *entryFreeList = nullptr;

    // Backing storage (slabs); free lists thread through these.
    std::vector<std::unique_ptr<ExtChunk[]>> chunkSlabs;
    std::vector<std::unique_ptr<ExtEntry[]>> entrySlabs;
};

} // namespace swex

#endif // SWEX_CORE_EXT_DIRECTORY_HH
