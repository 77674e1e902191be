/**
 * @file
 * Per-node main memory: the backing store for the node's segment of
 * the global shared address space. Sparse (hash-mapped) so that 4 MB
 * per node costs nothing until touched.
 */

#ifndef SWEX_MEM_MEMORY_HH
#define SWEX_MEM_MEMORY_HH

#include <unordered_map>

#include "base/types.hh"
#include "mem/block.hh"

namespace swex
{

constexpr Cycles memLatency = 10;         ///< DRAM access at the home

/** The DRAM of one node. Timing is charged by the home controller
 *  (the bus, on the snooping model). */
class MemoryModule
{
  public:
    /** Read a block (zero-filled if never written). */
    const DataBlock &
    readBlock(Addr block_addr) const
    {
        static const DataBlock zero{};
        auto it = store.find(block_addr);
        return it == store.end() ? zero : it->second;
    }

    /** Overwrite a whole block. */
    void
    writeBlock(Addr block_addr, const DataBlock &data)
    {
        store[block_addr] = data;
    }

    /** Word-granularity access for software handlers and loaders. */
    Word
    readWord(Addr addr) const
    {
        return readBlock(blockAlign(addr)).read(addr);
    }

    void
    writeWord(Addr addr, Word value)
    {
        store[blockAlign(addr)].write(addr, value);
    }

    /** Visit every touched block (unordered; callers wanting a
     *  canonical order must sort the addresses themselves). */
    template <typename Fn>
    void
    forEachBlock(Fn &&fn) const
    {
        for (const auto &[addr, data] : store)
            fn(addr, data);
    }

  private:
    std::unordered_map<Addr, DataBlock> store;
};

} // namespace swex

#endif // SWEX_MEM_MEMORY_HH
