/** @file Unit tests for the configurable routing policies (Fig. 6). */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "mem/address_map.hh"
#include "noc/routing.hh"

namespace sac {
namespace {

class RoutingTest : public ::testing::Test
{
  protected:
    RoutingTest() : map(4, 2, 128) {}
    AddressMap map;
};

TEST_F(RoutingTest, MemorySideServesAtHome)
{
    MemorySideRouting r;
    const auto plan = r.route(0x1000, /*src=*/0, /*home=*/3, map);
    EXPECT_EQ(plan.serveChip, 3);
    EXPECT_EQ(plan.slice, map.sliceIndex(0x1000));
    EXPECT_EQ(plan.allocPartition, partitionLocal);
    EXPECT_FALSE(plan.homeLookup);
    EXPECT_FALSE(plan.bypassHomeLlc);
}

TEST_F(RoutingTest, SmSideServesLocallyAndBypassesRemoteHome)
{
    SmSideRouting r;
    const auto remote = r.route(0x1000, 0, 3, map);
    EXPECT_EQ(remote.serveChip, 0);
    EXPECT_TRUE(remote.bypassHomeLlc);
    EXPECT_FALSE(remote.homeLookup);

    const auto local = r.route(0x1000, 2, 2, map);
    EXPECT_EQ(local.serveChip, 2);
    EXPECT_FALSE(local.bypassHomeLlc);
}

TEST_F(RoutingTest, PartitionedUsesRemotePartitionAndHomeLookup)
{
    PartitionedRouting r;
    const auto remote = r.route(0x2000, 1, 3, map);
    EXPECT_EQ(remote.serveChip, 1);
    EXPECT_EQ(remote.allocPartition, partitionRemote);
    EXPECT_TRUE(remote.homeLookup);
    EXPECT_EQ(remote.homeAllocPartition, partitionLocal);

    const auto local = r.route(0x2000, 3, 3, map);
    EXPECT_EQ(local.serveChip, 3);
    EXPECT_EQ(local.allocPartition, partitionLocal);
    EXPECT_FALSE(local.homeLookup);
}

TEST_F(RoutingTest, ApplyRouteCopiesFields)
{
    PartitionedRouting r;
    const auto plan = r.route(0x3000, 0, 2, map);
    Packet pkt;
    pkt.lineAddr = 0x3000;
    applyRoute(pkt, plan);
    EXPECT_EQ(pkt.serveChip, 0);
    EXPECT_EQ(pkt.slice, plan.slice);
    EXPECT_EQ(pkt.allocPartition, partitionRemote);
    EXPECT_TRUE(pkt.homeLookup);
    EXPECT_FALSE(pkt.bypassLlc); // set on the bypassing hop, not here
}

TEST_F(RoutingTest, SliceChoiceIsChipAgnostic)
{
    // The same line maps to the same slice index on every chip, which
    // is what lets SM-side replicas live in same-index slices.
    MemorySideRouting mem;
    SmSideRouting sm;
    for (Addr a = 0; a < 64 * 128; a += 128) {
        EXPECT_EQ(mem.route(a, 0, 2, map).slice, sm.route(a, 1, 2, map).slice);
    }
}

TEST_F(RoutingTest, PolicyNames)
{
    EXPECT_STREQ(MemorySideRouting{}.name(), "memory-side");
    EXPECT_STREQ(SmSideRouting{}.name(), "SM-side");
    EXPECT_STREQ(PartitionedRouting{}.name(), "partitioned");
}

} // namespace
} // namespace sac
