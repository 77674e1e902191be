/**
 * @file
 * Exact worker-set measurement, independent of the protocol under
 * test. A worker set (Section 5) is the set of nodes that access a
 * block between consecutive writes. The tracker records, per block,
 * the nodes granted copies since the last write; write grants sample
 * the set size into a histogram and restart the set. The end-of-run
 * per-block sets reproduce Figure 6.
 */

#ifndef SWEX_CORE_SHARING_TRACKER_HH
#define SWEX_CORE_SHARING_TRACKER_HH

#include <bitset>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/directory.hh"

namespace swex
{

/** Machine-wide worker-set tracker (optional; enabled per config). */
class SharingTracker
{
  public:
    /** A node received a read-only copy of the block. */
    void
    onShared(Addr block_addr, NodeId node)
    {
        auto &set = sets[block_addr];
        set.set(static_cast<std::size_t>(node));
    }

    /** A node received an exclusive copy (a write happened). */
    void
    onExclusive(Addr block_addr, NodeId node)
    {
        auto &set = sets[block_addr];
        set.set(static_cast<std::size_t>(node));
        writeSamples.push_back(static_cast<std::uint32_t>(set.count()));
        set.reset();
        set.set(static_cast<std::size_t>(node));
    }

    /**
     * Histogram of current worker-set sizes over all tracked blocks
     * (index = size; index 0 unused). This is Figure 6's measurement.
     */
    std::vector<std::uint64_t>
    endOfRunHistogram(int num_nodes) const
    {
        std::vector<std::uint64_t> hist(
            static_cast<std::size_t>(num_nodes) + 1, 0);
        for (const auto &[addr, set] : sets) {
            std::size_t n = set.count();
            if (n > static_cast<std::size_t>(num_nodes))
                n = static_cast<std::size_t>(num_nodes);
            ++hist[n];
        }
        return hist;
    }

    /** Sizes of worker sets observed at each write. */
    const std::vector<std::uint32_t> &
    writeTimeSamples() const
    {
        return writeSamples;
    }

  private:
    std::unordered_map<Addr, std::bitset<maxNodes>> sets;
    std::vector<std::uint32_t> writeSamples;
};

} // namespace swex

#endif // SWEX_CORE_SHARING_TRACKER_HH
