/**
 * @file
 * Unit tests for the combined direct-mapped cache and its victim
 * buffer: placement, conflict eviction, victim swap-back, coherence
 * removals/downgrades across both structures.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "mem/cache.hh"

using namespace swex;

namespace
{

DataBlock
blk(Word a, Word b)
{
    DataBlock d;
    d.words = {a, b};
    return d;
}

struct CacheTest : ::testing::Test
{
    stats::Group root;
    // Tiny cache: 16 sets (256 B), victim buffer of 2.
    Cache c{256, 2, &root};

    Addr
    addrAtSet(unsigned set, unsigned way)
    {
        // Same set, different tags.
        return static_cast<Addr>(set) * blockBytes +
               static_cast<Addr>(way) * 256;
    }
};

} // anonymous namespace

TEST(BlockGeometry, AlignAndWordIndex)
{
    EXPECT_EQ(blockAlign(0x1234), 0x1230u);
    EXPECT_EQ(blockAlign(0x1230), 0x1230u);
    EXPECT_EQ(wordInBlock(0x1230), 0u);
    EXPECT_EQ(wordInBlock(0x1238), 1u);
    DataBlock d;
    d.write(0x1238, 99);
    EXPECT_EQ(d.read(0x1238), 99u);
    EXPECT_EQ(d.read(0x1230), 0u);
}

TEST_F(CacheTest, FillThenHit)
{
    Addr a = addrAtSet(3, 0);
    Eviction ev = c.fill(a, LineState::Shared, blk(7, 8));
    EXPECT_FALSE(ev.valid);
    bool vh = false;
    CacheLine *line = c.access(a, vh);
    ASSERT_NE(line, nullptr);
    EXPECT_FALSE(vh);
    EXPECT_EQ(line->data.words[0], 7u);
    EXPECT_EQ(line->state, LineState::Shared);
}

TEST_F(CacheTest, MissOnUntouchedAddress)
{
    bool vh = false;
    EXPECT_EQ(c.access(0x40, vh), nullptr);
}

TEST_F(CacheTest, ConflictGoesToVictimAndSwapsBack)
{
    Addr a = addrAtSet(5, 0);
    Addr b = addrAtSet(5, 1);
    c.fill(a, LineState::Shared, blk(1, 1));
    Eviction ev = c.fill(b, LineState::Shared, blk(2, 2));
    EXPECT_FALSE(ev.valid);   // a went to the victim buffer
    EXPECT_EQ(c.victimSize(), 1u);

    bool vh = false;
    CacheLine *line = c.access(a, vh);
    ASSERT_NE(line, nullptr);
    EXPECT_TRUE(vh);
    EXPECT_EQ(line->data.words[0], 1u);
    // b was displaced into the victim buffer by the swap.
    EXPECT_TRUE(c.holds(b));
    CacheLine *main_b = c.probeMain(b);
    EXPECT_EQ(main_b, nullptr);
}

TEST_F(CacheTest, VictimOverflowEvictsOldest)
{
    Addr a0 = addrAtSet(2, 0), a1 = addrAtSet(2, 1);
    Addr a2 = addrAtSet(2, 2), a3 = addrAtSet(2, 3);
    c.fill(a0, LineState::Modified, blk(10, 0));
    c.fill(a1, LineState::Shared, blk(11, 0));   // a0 -> victim
    c.fill(a2, LineState::Shared, blk(12, 0));   // a1 -> victim
    Eviction ev = c.fill(a3, LineState::Shared, blk(13, 0));
    // Victim holds 2; pushing a2's displacement evicts oldest (a0).
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.blockAddr, a0);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.data.words[0], 10u);
    EXPECT_FALSE(c.holds(a0));
}

TEST_F(CacheTest, NoVictimCacheEvictsDirectly)
{
    stats::Group g;
    Cache direct(256, 0, &g);
    Addr a = 0 * blockBytes;
    Addr b = 256;
    direct.fill(a, LineState::Modified, blk(5, 6));
    Eviction ev = direct.fill(b, LineState::Shared, blk(7, 8));
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.blockAddr, a);
    EXPECT_FALSE(direct.holds(a));
}

TEST_F(CacheTest, RemoveFindsVictimLines)
{
    Addr a = addrAtSet(7, 0);
    Addr b = addrAtSet(7, 1);
    c.fill(a, LineState::Modified, blk(3, 4));
    c.fill(b, LineState::Shared, blk(5, 6));   // a in victim
    RemovalResult r = c.remove(a);
    EXPECT_TRUE(r.wasPresent);
    EXPECT_TRUE(r.wasDirty);
    EXPECT_EQ(r.data.words[1], 4u);
    EXPECT_FALSE(c.holds(a));
    // Removing again reports absence.
    EXPECT_FALSE(c.remove(a).wasPresent);
}

TEST_F(CacheTest, DowngradeKeepsLineShared)
{
    Addr a = addrAtSet(9, 0);
    c.fill(a, LineState::Modified, blk(1, 2));
    RemovalResult r = c.downgrade(a);
    EXPECT_TRUE(r.wasPresent);
    EXPECT_TRUE(r.wasDirty);
    CacheLine *line = c.probeMain(a);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->state, LineState::Shared);
    // Downgrading an already-shared line reports clean.
    EXPECT_FALSE(c.downgrade(a).wasDirty);
}

TEST_F(CacheTest, PeekDoesNotPerturb)
{
    Addr a = addrAtSet(4, 0);
    Addr b = addrAtSet(4, 1);
    c.fill(a, LineState::Shared, blk(1, 1));
    c.fill(b, LineState::Shared, blk(2, 2));
    const CacheLine *p = c.peek(a);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->data.words[0], 1u);
    // a stays in the victim buffer (no swap).
    EXPECT_EQ(c.probeMain(a), nullptr);
}

TEST_F(CacheTest, FlushAllEmptiesEverything)
{
    c.fill(addrAtSet(1, 0), LineState::Shared, blk(1, 1));
    c.fill(addrAtSet(1, 1), LineState::Shared, blk(2, 2));
    c.flushAll();
    EXPECT_FALSE(c.holds(addrAtSet(1, 0)));
    EXPECT_FALSE(c.holds(addrAtSet(1, 1)));
    EXPECT_EQ(c.victimSize(), 0u);
}

TEST_F(CacheTest, IndexMasksBlockAddress)
{
    EXPECT_EQ(c.numSets(), 16u);
    EXPECT_EQ(c.indexOf(0), 0u);
    EXPECT_EQ(c.indexOf(15 * blockBytes), 15u);
    EXPECT_EQ(c.indexOf(16 * blockBytes), 0u);
}

namespace
{

/** forEachLine's visit order as (block, state) pairs. */
std::vector<std::pair<Addr, LineState>>
walk(const Cache &cache)
{
    std::vector<std::pair<Addr, LineState>> seen;
    cache.forEachLine([&](const CacheLine &line) {
        seen.emplace_back(line.blockAddr, line.state);
    });
    return seen;
}

} // anonymous namespace

TEST(CacheWalk, VisitsExactlyTheValidLinesInSetThenVictimOrder)
{
    // 256 sets, so the filled-set bitmap spans four words; the sets
    // used straddle the word boundaries at 64 and 128.
    stats::Group g;
    Cache c(4096, 2, &g);
    auto at = [](unsigned set, unsigned way) {
        return static_cast<Addr>(set) * blockBytes +
               static_cast<Addr>(way) * 4096;
    };
    using P = std::pair<Addr, LineState>;
    EXPECT_TRUE(walk(c).empty());

    c.fill(at(130, 0), LineState::Shared, blk(1, 0));
    c.fill(at(5, 0), LineState::Modified, blk(2, 0));
    c.fill(at(64, 0), LineState::Exclusive, blk(3, 0));
    c.fill(at(63, 0), LineState::Modified, blk(4, 0));
    EXPECT_EQ(walk(c), (std::vector<P>{{at(5, 0), LineState::Modified},
                                       {at(63, 0), LineState::Modified},
                                       {at(64, 0), LineState::Exclusive},
                                       {at(130, 0), LineState::Shared}}));

    // Conflict evictions: set 5's and set 64's occupants go to the
    // victim buffer; a third conflict pushes the oldest out.
    c.fill(at(5, 1), LineState::Shared, blk(5, 0));
    c.fill(at(64, 1), LineState::Owned, blk(6, 0));
    Eviction ev = c.fill(at(64, 2), LineState::Shared, blk(7, 0));
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.blockAddr, at(5, 0));
    EXPECT_EQ(walk(c), (std::vector<P>{{at(5, 1), LineState::Shared},
                                       {at(63, 0), LineState::Modified},
                                       {at(64, 2), LineState::Shared},
                                       {at(130, 0), LineState::Shared},
                                       {at(64, 0), LineState::Exclusive},
                                       {at(64, 1), LineState::Owned}}));

    // Victim swap-back: at(64, 0) returns to its set and the set's
    // occupant joins the victim buffer as its newest entry.
    bool victim_hit = false;
    ASSERT_NE(c.access(at(64, 0), victim_hit), nullptr);
    EXPECT_TRUE(victim_hit);
    EXPECT_EQ(walk(c), (std::vector<P>{{at(5, 1), LineState::Shared},
                                       {at(63, 0), LineState::Modified},
                                       {at(64, 0), LineState::Exclusive},
                                       {at(130, 0), LineState::Shared},
                                       {at(64, 1), LineState::Owned},
                                       {at(64, 2), LineState::Shared}}));

    // remove() empties a set and a victim slot; downgrade() keeps the
    // line valid in its new state.
    EXPECT_TRUE(c.remove(at(63, 0)).wasPresent);
    EXPECT_TRUE(c.remove(at(64, 1)).wasPresent);
    c.fill(at(255, 0), LineState::Modified, blk(8, 0));
    EXPECT_TRUE(c.downgrade(at(255, 0)).wasDirty);
    EXPECT_EQ(walk(c), (std::vector<P>{{at(5, 1), LineState::Shared},
                                       {at(64, 0), LineState::Exclusive},
                                       {at(130, 0), LineState::Shared},
                                       {at(255, 0), LineState::Shared},
                                       {at(64, 2), LineState::Shared}}));

    // flushAll leaves nothing to visit; later fills are seen again.
    c.flushAll();
    EXPECT_TRUE(walk(c).empty());
    c.fill(at(0, 3), LineState::Shared, blk(9, 0));
    c.fill(at(200, 0), LineState::Modified, blk(10, 0));
    EXPECT_EQ(walk(c), (std::vector<P>{{at(0, 3), LineState::Shared},
                                       {at(200, 0), LineState::Modified}}));
}

namespace
{

/** True if @p cache reports @p block_addr through none of its lookups. */
bool
absentEverywhere(Cache &cache, Addr block_addr)
{
    bool victim_hit = true;
    return cache.probeMain(block_addr) == nullptr &&
           cache.peek(block_addr) == nullptr &&
           !cache.holds(block_addr) &&
           cache.findLine(block_addr) == nullptr &&
           cache.access(block_addr, victim_hit) == nullptr &&
           !victim_hit;
}

} // anonymous namespace

TEST(CacheStorage, AFreshCacheReportsNoLineAtAnySet)
{
    // The set array is not initialised: a set is read only once a
    // line was written into it. Build a full-size cache where a full
    // one was just freed, so its storage most likely holds the old
    // cache's valid lines, and look every set up at the tags the old
    // cache held and at tag 0. Two full caches are built and freed
    // first: glibc maps the first from fresh zeroed pages, and its
    // free moves later arrays of that size onto the reused heap.
    constexpr unsigned bytes = 64 * 1024;
    for (int round = 0; round < 2; ++round) {
        stats::Group scratch;
        Cache old(bytes, 0, &scratch);
        for (unsigned set = 0; set < old.numSets(); ++set)
            old.fill(static_cast<Addr>(set) * blockBytes + bytes,
                     LineState::Modified, blk(set, 1));
    }
    stats::Group g;
    Cache c(bytes, 6, &g);
    for (unsigned set = 0; set < c.numSets(); ++set) {
        const Addr at = static_cast<Addr>(set) * blockBytes;
        ASSERT_TRUE(absentEverywhere(c, at)) << "set " << set;
        ASSERT_TRUE(absentEverywhere(c, at + bytes)) << "set " << set;
    }
    EXPECT_TRUE(walk(c).empty());
    EXPECT_FALSE(c.remove(bytes).wasPresent);
    EXPECT_FALSE(c.downgrade(bytes).wasPresent);
    // A first fill displaces nothing.
    EXPECT_FALSE(c.fill(0, LineState::Shared, blk(1, 2)).valid);
    EXPECT_EQ(c.victimSize(), 0u);
}

TEST_F(CacheTest, FillEvictSwapBackKeepsVictimOrderAndCounters)
{
    const Addr a = addrAtSet(6, 0), b = addrAtSet(6, 1);
    const Addr d = addrAtSet(6, 2), e = addrAtSet(6, 3);
    c.fill(a, LineState::Modified, blk(1, 0));
    c.fill(b, LineState::Shared, blk(2, 0));     // a -> victim
    c.fill(d, LineState::Modified, blk(3, 0));   // b -> victim
    using P = std::pair<Addr, LineState>;
    EXPECT_EQ(walk(c), (std::vector<P>{{d, LineState::Modified},
                                       {a, LineState::Modified},
                                       {b, LineState::Shared}}));
    EXPECT_EQ(c.evictions.value(), 0.0);

    // d -> victim pushes the oldest (a, dirty) out of the node.
    Eviction ev = c.fill(e, LineState::Shared, blk(4, 0));
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.blockAddr, a);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(c.evictions.value(), 1.0);
    EXPECT_EQ(c.dirtyEvictions.value(), 1.0);

    // Swap b back: the set's occupant e becomes the newest victim.
    bool victim_hit = false;
    CacheLine *line = c.access(b, victim_hit);
    ASSERT_NE(line, nullptr);
    EXPECT_TRUE(victim_hit);
    EXPECT_EQ(line->data.words[0], 2u);
    EXPECT_EQ(walk(c), (std::vector<P>{{b, LineState::Shared},
                                       {d, LineState::Modified},
                                       {e, LineState::Shared}}));

    // A swap-back into a set whose occupant was invalidated parks
    // nothing: the invalid line is not a victim.
    EXPECT_TRUE(c.remove(b).wasPresent);
    ASSERT_NE(c.access(d, victim_hit), nullptr);
    EXPECT_TRUE(victim_hit);
    EXPECT_EQ(walk(c), (std::vector<P>{{d, LineState::Modified},
                                       {e, LineState::Shared}}));
    EXPECT_EQ(c.victimSize(), 1u);
    // Swaps move lines inside the node; only the fill counted.
    EXPECT_EQ(c.evictions.value(), 1.0);
    EXPECT_EQ(c.dirtyEvictions.value(), 1.0);
}

TEST_F(CacheTest, FlushAllEmptiesSetsWithoutRewritingThem)
{
    const Addr a = addrAtSet(11, 0), b = addrAtSet(11, 1);
    c.fill(a, LineState::Modified, blk(7, 9));
    const CacheLine *stored = c.peek(a);
    ASSERT_NE(stored, nullptr);
    c.flushAll();

    EXPECT_TRUE(absentEverywhere(c, a));
    EXPECT_TRUE(walk(c).empty());
    EXPECT_FALSE(c.remove(a).wasPresent);
    EXPECT_FALSE(c.downgrade(a).wasPresent);
    // flushAll cleared only the filled-set bitmap: the set's storage
    // still holds the old line, bytes and state alike.
    EXPECT_EQ(stored->blockAddr, a);
    EXPECT_EQ(stored->state, LineState::Modified);
    EXPECT_EQ(stored->data, blk(7, 9));

    // A fill into the flushed set displaces nothing.
    EXPECT_FALSE(c.fill(b, LineState::Shared, blk(1, 1)).valid);
    EXPECT_EQ(c.victimSize(), 0u);
    EXPECT_EQ(c.peek(b), stored);
    EXPECT_EQ(c.evictions.value(), 0.0);
}
