#include "core/ext_directory.hh"

namespace swex
{

namespace
{
constexpr std::size_t slabSize = 64;
} // anonymous namespace

ExtDirectory::ExtDirectory(stats::Group *stats_parent)
    : statsGroup(stats_parent, "extdir"),
      entriesAllocated(&statsGroup, "entriesAllocated"),
      entriesReleased(&statsGroup, "entriesReleased"),
      chunksAllocated(&statsGroup, "chunksAllocated"),
      sharersRecorded(&statsGroup, "sharersRecorded")
{
}

ExtDirectory::~ExtDirectory() = default;

std::size_t
ExtDirectory::bucketOf(Addr a) const
{
    return static_cast<std::size_t>((a >> 4) * 0x9e3779b97f4a7c15ULL %
                                    numBuckets);
}

ExtEntry *
ExtDirectory::lookup(Addr block_addr)
{
    for (ExtEntry *e = buckets[bucketOf(block_addr)]; e; e = e->hashNext)
        if (e->blockAddr == block_addr)
            return e;
    return nullptr;
}

ExtEntry *
ExtDirectory::allocEntryNode()
{
    if (!entryFreeList) {
        entrySlabs.push_back(std::make_unique<ExtEntry[]>(slabSize));
        ExtEntry *slab = entrySlabs.back().get();
        for (std::size_t i = 0; i < slabSize; ++i) {
            slab[i].hashNext = entryFreeList;
            entryFreeList = &slab[i];
        }
    }
    ExtEntry *e = entryFreeList;
    entryFreeList = e->hashNext;
    *e = ExtEntry{};
    return e;
}

ExtEntry &
ExtDirectory::alloc(Addr block_addr)
{
    if (ExtEntry *e = lookup(block_addr))
        return *e;
    ExtEntry *e = allocEntryNode();
    e->blockAddr = block_addr;
    std::size_t b = bucketOf(block_addr);
    e->hashNext = buckets[b];
    buckets[b] = e;
    ++_numEntries;
    ++entriesAllocated;
    return *e;
}

void
ExtDirectory::release(Addr block_addr)
{
    std::size_t b = bucketOf(block_addr);
    ExtEntry **link = &buckets[b];
    while (*link) {
        ExtEntry *e = *link;
        if (e->blockAddr == block_addr) {
            *link = e->hashNext;
            freeChunkChain(e->head);
            e->hashNext = entryFreeList;
            entryFreeList = e;
            --_numEntries;
            ++entriesReleased;
            return;
        }
        link = &e->hashNext;
    }
}

ExtChunk *
ExtDirectory::allocChunk()
{
    if (!chunkFreeList) {
        chunkSlabs.push_back(std::make_unique<ExtChunk[]>(slabSize));
        ExtChunk *slab = chunkSlabs.back().get();
        for (std::size_t i = 0; i < slabSize; ++i) {
            slab[i].next = chunkFreeList;
            chunkFreeList = &slab[i];
        }
    }
    ExtChunk *c = chunkFreeList;
    chunkFreeList = c->next;
    c->count = 0;
    c->next = nullptr;
    ++chunksAllocated;
    return c;
}

void
ExtDirectory::freeChunkChain(ExtChunk *head)
{
    while (head) {
        ExtChunk *next = head->next;
        head->next = chunkFreeList;
        chunkFreeList = head;
        head = next;
    }
}

void
ExtDirectory::addSharer(ExtEntry &entry, NodeId n)
{
    if (entry.hasSharer(n))
        return;
    ExtChunk *c = entry.head;
    if (!c || c->count == ExtChunk::fanout) {
        ExtChunk *fresh = allocChunk();
        fresh->next = entry.head;
        entry.head = fresh;
        c = fresh;
    }
    c->ids[c->count++] = n;
    ++entry.sharerCount;
    ++sharersRecorded;
}

} // namespace swex
