/**
 * @file
 * Shared-memory data layout helpers: distributed arrays with
 * interleaved, blocked, or single-home placement over the nodes'
 * memory segments. These mirror the data-distribution facilities of
 * Alewife's parallel C library.
 */

#ifndef SWEX_RUNTIME_SHMEM_HH
#define SWEX_RUNTIME_SHMEM_HH

#include <vector>

#include "base/intmath.hh"
#include "base/logging.hh"
#include "machine/machine.hh"
#include "mem/block.hh"

namespace swex
{

/** How a SharedArray's blocks map onto nodes. */
enum class Layout : std::uint8_t
{
    Interleaved,   ///< block i homed on node i mod n
    Blocked,       ///< contiguous chunk of blocks per node
    OnNode,        ///< the whole array on one home node
};

/**
 * A distributed array of 64-bit words. The array owns no storage; it
 * is a mapping from word index to global address, backed by per-node
 * allocations made at construction.
 */
class SharedArray
{
  public:
    SharedArray() = default;

    SharedArray(Machine &m, std::size_t num_words, Layout layout,
                NodeId home = 0)
        : _words(num_words), _layout(layout),
          _numNodes(m.numNodes())
    {
        const std::size_t per_node =
            nodeBlocks(num_words, layout, _numNodes);
        if (layout == Layout::OnNode) {
            _bases.push_back(
                m.allocOn(home, per_node * blockBytes, blockBytes));
            return;
        }
        if (layout == Layout::Blocked)
            _chunkBlocks = per_node;
        for (int n = 0; n < _numNodes; ++n)
            _bases.push_back(
                m.allocOn(n, per_node * blockBytes, blockBytes));
    }

    /** Blocks an array of @p num_words words takes on each node that
     *  holds part of it, on a machine of @p num_nodes nodes. */
    static std::uint64_t
    nodeBlocks(std::uint64_t num_words, Layout layout, int num_nodes)
    {
        const std::uint64_t blocks = divCeil(num_words, wordsPerBlock);
        return layout == Layout::OnNode
                   ? blocks
                   : divCeil(blocks, static_cast<std::uint64_t>(num_nodes));
    }

    std::size_t size() const { return _words; }

    /** Global address of word @p i. */
    Addr
    at(std::size_t i) const
    {
        SWEX_ASSERT(i < _words, "SharedArray index %zu out of range", i);
        std::size_t block = i / wordsPerBlock;
        std::size_t in_block = (i % wordsPerBlock) * sizeof(Word);
        switch (_layout) {
          case Layout::OnNode:
            return _bases[0] + block * blockBytes + in_block;
          case Layout::Interleaved: {
            auto node = block % static_cast<std::size_t>(_numNodes);
            auto slot = block / static_cast<std::size_t>(_numNodes);
            return _bases[node] + slot * blockBytes + in_block;
          }
          case Layout::Blocked: {
            auto node = block / _chunkBlocks;
            auto slot = block % _chunkBlocks;
            return _bases[node] + slot * blockBytes + in_block;
          }
        }
        return 0;
    }

    /** Initialize contents through the debug backdoor (setup only). */
    void
    fill(Machine &m, Word value) const
    {
        for (std::size_t i = 0; i < _words; ++i)
            m.debugWrite(at(i), value);
    }

  private:
    std::vector<Addr> _bases;
    std::size_t _words = 0;
    Layout _layout = Layout::OnNode;
    int _numNodes = 1;
    std::size_t _chunkBlocks = 1;
};

} // namespace swex

#endif // SWEX_RUNTIME_SHMEM_HH
