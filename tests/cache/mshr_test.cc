/** @file Unit tests for the MSHR file. */

#include <gtest/gtest.h>

#include <vector>

#include "cache/mshr.hh"

namespace sac {
namespace {

Packet
pkt(Addr line, int warp, unsigned sector = 0)
{
    Packet p;
    p.lineAddr = line;
    p.warp = warp;
    p.sector = static_cast<std::uint8_t>(sector);
    return p;
}

/** The warps complete() visits for @p line / @p sector, in order. */
std::vector<int>
complete(MshrFile &m, Addr line, unsigned sector)
{
    std::vector<int> warps;
    const std::size_t count = m.complete(
        line, sector, [&](const Packet &t) { warps.push_back(t.warp); });
    EXPECT_EQ(count, warps.size());
    return warps;
}

TEST(Mshr, FirstMissIsPrimary)
{
    MshrFile m(4);
    EXPECT_EQ(m.allocate(pkt(0x100, 0)), MshrFile::Outcome::Primary);
    EXPECT_TRUE(m.has(0x100, 0));
    EXPECT_EQ(m.inUse(), 1u);
}

TEST(Mshr, SameLineMerges)
{
    MshrFile m(4);
    m.allocate(pkt(0x100, 0));
    EXPECT_EQ(m.allocate(pkt(0x100, 1)), MshrFile::Outcome::Merged);
    EXPECT_EQ(m.allocate(pkt(0x100, 2)), MshrFile::Outcome::Merged);
    EXPECT_EQ(m.inUse(), 1u);
    EXPECT_EQ(complete(m, 0x100, 0), (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(m.inUse(), 0u);
}

TEST(Mshr, FullRejectsNewLines)
{
    MshrFile m(2);
    m.allocate(pkt(0x100, 0));
    m.allocate(pkt(0x200, 1));
    EXPECT_TRUE(m.full());
    EXPECT_EQ(m.allocate(pkt(0x300, 2)), MshrFile::Outcome::Full);
    // Existing lines still merge when full.
    EXPECT_EQ(m.allocate(pkt(0x100, 3)), MshrFile::Outcome::Merged);
}

TEST(Mshr, SectorsAreIndependentEntries)
{
    MshrFile m(4);
    EXPECT_EQ(m.allocate(pkt(0x100, 0, 0)), MshrFile::Outcome::Primary);
    EXPECT_EQ(m.allocate(pkt(0x100, 1, 2)), MshrFile::Outcome::Primary);
    EXPECT_EQ(m.inUse(), 2u);
    EXPECT_EQ(complete(m, 0x100, 2).size(), 1u);
    EXPECT_TRUE(m.has(0x100, 0));
}

TEST(Mshr, CompleteUnknownReturnsEmpty)
{
    MshrFile m(2);
    m.allocate(pkt(0x100, 0));
    int visits = 0;
    EXPECT_EQ(m.complete(0x500, 0, [&](const Packet &) { ++visits; }), 0u);
    // Same line, other sector: also no entry.
    EXPECT_EQ(m.complete(0x100, 1, [&](const Packet &) { ++visits; }), 0u);
    EXPECT_EQ(visits, 0);
    EXPECT_EQ(m.inUse(), 1u);
}

TEST(Mshr, CompleteVisitsInArrivalOrderAcrossMerges)
{
    // Merges into two lines interleave; each completion visits only
    // its own targets, oldest first.
    MshrFile m(4);
    m.allocate(pkt(0x100, 0));
    m.allocate(pkt(0x200, 1));
    m.allocate(pkt(0x100, 2));
    m.allocate(pkt(0x200, 3));
    m.allocate(pkt(0x100, 4));
    EXPECT_EQ(complete(m, 0x200, 0), (std::vector<int>{1, 3}));
    // The freed nodes are reused by later merges, behind older ones.
    m.allocate(pkt(0x100, 5));
    m.allocate(pkt(0x100, 6));
    EXPECT_EQ(complete(m, 0x100, 0), (std::vector<int>{0, 2, 4, 5, 6}));
    EXPECT_EQ(m.inUse(), 0u);
}

TEST(Mshr, PooledNodesKeepInUseExact)
{
    // Many cycles with several entries outstanding, completed out of
    // allocation order, so every entry is built from recycled nodes.
    MshrFile m(4);
    int warp = 0;
    for (int round = 0; round < 200; ++round) {
        const Addr base = 0x10000 + static_cast<Addr>(round) * 0x400;
        std::vector<std::vector<int>> expect(3);
        for (std::size_t i = 0; i < 3; ++i) {
            for (std::size_t t = 0; t <= (round + i) % 4; ++t) {
                expect[i].push_back(warp);
                const auto outcome = m.allocate(pkt(base + i * 0x80, warp++));
                ASSERT_EQ(outcome, t == 0 ? MshrFile::Outcome::Primary
                                          : MshrFile::Outcome::Merged);
            }
            ASSERT_EQ(m.inUse(), i + 1);
        }
        for (const std::size_t i : {2, 0, 1}) {
            const std::size_t before = m.inUse();
            ASSERT_EQ(complete(m, base + i * 0x80, 0), expect[i]);
            ASSERT_EQ(m.inUse(), before - 1);
            ASSERT_FALSE(m.has(base + i * 0x80, 0));
        }
    }
}

TEST(Mshr, ReallocateAfterCompleteRecyclesEntries)
{
    // Steady-state churn: allocate/complete cycles across many
    // distinct lines must keep entry bookkeeping exact.
    MshrFile m(8);
    for (Addr base = 0; base < 64; ++base) {
        const Addr line = 0x1000 + base * 0x40;
        ASSERT_EQ(m.allocate(pkt(line, 0)), MshrFile::Outcome::Primary);
        ASSERT_EQ(m.allocate(pkt(line, 1)), MshrFile::Outcome::Merged);
        ASSERT_EQ(complete(m, line, 0), (std::vector<int>{0, 1}));
        ASSERT_EQ(m.inUse(), 0u);
    }
}

} // namespace
} // namespace sac
