/** @file Unit and property tests for the set-associative cache. */

#include <gtest/gtest.h>

#include <vector>

#include "cache/cache.hh"
#include "common/rng.hh"

namespace sac {
namespace {

constexpr unsigned lineBytes = 128;

/** 16 KB, 4-way: 32 sets. */
SetAssocCache
smallCache(unsigned sectors = 1)
{
    return SetAssocCache(16 * 1024, 4, lineBytes, sectors);
}

/** The first @p n line addresses that map to set 0 of @p c. */
std::vector<Addr>
sameSet(const SetAssocCache &c, std::size_t n)
{
    std::vector<Addr> out;
    const auto set0 = c.setIndex(0);
    for (Addr a = 0; out.size() < n; a += lineBytes) {
        if (c.setIndex(a) == set0)
            out.push_back(a);
    }
    return out;
}

TEST(Cache, MissThenHit)
{
    auto c = smallCache();
    EXPECT_FALSE(c.access(0x1000, 0, false).hit);
    c.insert(0x1000, 0, 0, false, partitionLocal);
    EXPECT_TRUE(c.access(0x1000, 0, false).hit);
    EXPECT_TRUE(c.probe(0x1000, 0));
}

TEST(Cache, WriteMarksLineDirty)
{
    auto c = smallCache();
    c.insert(0x2000, 0, 1, false, partitionLocal);
    EXPECT_EQ(c.dirtyLines(), 0u);
    EXPECT_TRUE(c.access(0x2000, 0, true).hit);
    EXPECT_EQ(c.dirtyLines(), 1u);
}

TEST(Cache, DirtyInsertReportsDirtyEviction)
{
    auto c = smallCache();
    // Fill one set beyond capacity with dirty lines and check the
    // eviction carries the dirty bit and home chip.
    const auto same_set = sameSet(c, 5);
    for (std::size_t i = 0; i < 4; ++i)
        c.insert(same_set[i], 0, 3, true, partitionLocal);
    const auto evict = c.insert(same_set[4], 0, 0, false, partitionLocal);
    EXPECT_TRUE(evict.evicted);
    EXPECT_TRUE(evict.dirty);
    EXPECT_EQ(evict.home, 3);
}

TEST(Cache, LruEvictsOldest)
{
    auto c = smallCache();
    const auto same_set = sameSet(c, 5);
    for (std::size_t i = 0; i < 4; ++i)
        c.insert(same_set[i], 0, 0, false, partitionLocal);
    // Touch the first line so the second becomes LRU.
    c.access(same_set[0], 0, false);
    c.insert(same_set[4], 0, 0, false, partitionLocal);
    EXPECT_TRUE(c.probe(same_set[0], 0));
    EXPECT_FALSE(c.probe(same_set[1], 0));
}

TEST(Lru, EvictsLeastRecentlyUsed)
{
    auto c = smallCache();
    const auto a = sameSet(c, 5);
    for (std::size_t i = 0; i < 4; ++i)
        c.insert(a[i], 0, 0, false, partitionLocal);
    // Touch every line out of insertion order: a[1] is touched
    // longest ago, although a[0] was inserted first.
    for (const std::size_t i : {1, 3, 2, 0})
        c.access(a[i], 0, false);
    const auto evict = c.insert(a[4], 0, 0, false, partitionLocal);
    ASSERT_TRUE(evict.evicted);
    EXPECT_EQ(evict.lineAddr, a[1]);
    EXPECT_TRUE(c.probe(a[0], 0));
    EXPECT_TRUE(c.probe(a[2], 0));
    EXPECT_TRUE(c.probe(a[3], 0));
}

TEST(Cache, InvalidWayChosenBeforeLru)
{
    auto c = smallCache();
    const auto a = sameSet(c, 5);
    for (std::size_t i = 0; i < 4; ++i)
        c.insert(a[i], 0, 0, false, partitionLocal);
    c.access(a[0], 0, false); // a[1] is now the LRU way
    ASSERT_TRUE(c.invalidate(a[2]));
    // The freed way takes the fill; the LRU line stays.
    const auto evict = c.insert(a[4], 0, 0, false, partitionLocal);
    EXPECT_FALSE(evict.evicted);
    EXPECT_TRUE(c.probe(a[1], 0));
    EXPECT_TRUE(c.probe(a[4], 0));
    EXPECT_EQ(c.validLines(), 4u);
}

TEST(Cache, LruVictimStaysInPartition)
{
    auto c = smallCache();
    c.setWaySplit(2); // class 0 -> ways [0,2), class 1 -> [2,4)
    const auto a = sameSet(c, 5);
    // The local lines are the oldest in the set.
    c.insert(a[0], 0, 0, false, partitionLocal);
    c.insert(a[1], 0, 0, false, partitionLocal);
    c.insert(a[2], 0, 1, false, partitionRemote);
    c.insert(a[3], 0, 1, false, partitionRemote);
    c.access(a[2], 0, false); // a[3] is the remote partition's LRU
    const auto evict = c.insert(a[4], 0, 1, false, partitionRemote);
    ASSERT_TRUE(evict.evicted);
    EXPECT_EQ(evict.lineAddr, a[3]);
    EXPECT_TRUE(c.probe(a[0], 0));
    EXPECT_TRUE(c.probe(a[1], 0));
    EXPECT_TRUE(c.probe(a[2], 0));
}

TEST(Cache, WayPartitionSeparatesAllocations)
{
    auto c = smallCache();
    c.setWaySplit(2); // class 0 -> ways [0,2), class 1 -> [2,4)
    const auto same_set = sameSet(c, 6);
    // Two local lines fill the local partition.
    c.insert(same_set[0], 0, 0, false, partitionLocal);
    c.insert(same_set[1], 0, 0, false, partitionLocal);
    // Remote allocations must not evict them.
    c.insert(same_set[2], 0, 1, false, partitionRemote);
    c.insert(same_set[3], 0, 1, false, partitionRemote);
    c.insert(same_set[4], 0, 1, false, partitionRemote);
    EXPECT_TRUE(c.probe(same_set[0], 0));
    EXPECT_TRUE(c.probe(same_set[1], 0));
    // But a third local allocation evicts a local line.
    c.insert(same_set[5], 0, 0, false, partitionLocal);
    EXPECT_EQ(c.validLines(), 4u);
}

TEST(Cache, LookupFindsLinesInEitherPartition)
{
    auto c = smallCache();
    c.setWaySplit(2);
    c.insert(0x4000, 0, 1, false, partitionRemote);
    EXPECT_TRUE(c.access(0x4000, 0, false).hit);
}

TEST(Cache, RemoteLinesCounter)
{
    auto c = smallCache();
    c.insert(0x1000, 0, /*home=*/0, false, partitionLocal);
    c.insert(0x2000, 0, /*home=*/1, false, partitionLocal);
    c.insert(0x3000, 0, /*home=*/2, false, partitionLocal);
    EXPECT_EQ(c.remoteLines(/*chip=*/0), 2u);
    EXPECT_EQ(c.remoteLines(/*chip=*/1), 2u);
}

TEST(Cache, FlushIfWritesBackOnlyMatchingDirtyLines)
{
    auto c = smallCache();
    c.insert(0x1000, 0, 0, true, partitionLocal);  // local dirty
    c.insert(0x2000, 0, 1, true, partitionLocal);  // remote dirty
    c.insert(0x3000, 0, 1, false, partitionLocal); // remote clean
    std::vector<Addr> written;
    c.flushIf([](const CacheLine &l) { return l.home != 0; },
              [&](const CacheLine &l) { written.push_back(l.lineAddr); });
    ASSERT_EQ(written.size(), 1u);
    EXPECT_EQ(written[0], 0x2000u);
    EXPECT_TRUE(c.probe(0x1000, 0));   // local line survived
    EXPECT_FALSE(c.probe(0x2000, 0));
    EXPECT_FALSE(c.probe(0x3000, 0));
}

TEST(Cache, FlushAllEmptiesTheCache)
{
    auto c = smallCache();
    for (Addr a = 0; a < 64 * lineBytes; a += lineBytes)
        c.insert(a, 0, 0, false, partitionLocal);
    EXPECT_GT(c.validLines(), 0u);
    c.flushAll();
    EXPECT_EQ(c.validLines(), 0u);
}

TEST(Cache, InvalidateSingleLine)
{
    auto c = smallCache();
    c.insert(0x1000, 0, 0, false, partitionLocal);
    EXPECT_TRUE(c.invalidate(0x1000));
    EXPECT_FALSE(c.invalidate(0x1000));
    EXPECT_FALSE(c.probe(0x1000, 0));
}

TEST(Cache, SectoredMissOnAbsentSector)
{
    auto c = smallCache(4);
    c.insert(0x1000, 1, 0, false, partitionLocal);
    EXPECT_TRUE(c.access(0x1000, 1, false).hit);
    const auto res = c.access(0x1000, 2, false);
    EXPECT_FALSE(res.hit);
    EXPECT_TRUE(res.sectorMiss);
    // Filling the sector completes the line without eviction.
    const auto evict = c.insert(0x1000, 2, 0, false, partitionLocal);
    EXPECT_FALSE(evict.evicted);
    EXPECT_TRUE(c.access(0x1000, 2, false).hit);
}

TEST(Cache, ConventionalLineValidatesAllSectors)
{
    auto c = smallCache(1);
    c.insert(0x1000, 0, 0, false, partitionLocal);
    EXPECT_TRUE(c.probe(0x1000, 0));
}

TEST(Cache, NeverExceedsCapacityProperty)
{
    auto c = smallCache();
    Rng rng(99);
    for (int i = 0; i < 20000; ++i) {
        const Addr a = rng.nextBounded(1 << 20) * lineBytes;
        if (!c.access(a, 0, false).hit)
            c.insert(a, 0, 0, rng.nextBool(0.3), partitionLocal);
    }
    EXPECT_LE(c.validLines(), 16ull * 1024 / lineBytes);
    EXPECT_LE(c.dirtyLines(), c.validLines());
}

TEST(Cache, HotSetFitsAndStays)
{
    // A working set half the cache size must reach a near-perfect hit
    // rate under LRU with uniform access.
    auto c = smallCache();
    Rng rng(7);
    const std::uint64_t hot_lines = 48; // vs 128-line capacity
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const Addr a = rng.nextBounded(hot_lines) * lineBytes;
        if (c.access(a, 0, false).hit) {
            ++hits;
        } else {
            c.insert(a, 0, 0, false, partitionLocal);
        }
    }
    EXPECT_GT(hits, n * 95 / 100);
}

} // namespace
} // namespace sac
