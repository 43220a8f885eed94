/** @file Unit tests for the routing rules (Fig. 6). */

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
    const auto plan = memorySideRoute(0x1000, /*home=*/3, map);
    EXPECT_EQ(plan.serveChip, 3);
    EXPECT_EQ(plan.slice, map.sliceIndex(0x1000));
    EXPECT_EQ(plan.allocPartition, partitionLocal);
    EXPECT_FALSE(plan.homeLookup);
    EXPECT_FALSE(plan.bypassHomeLlc);
}

TEST_F(RoutingTest, SmSideServesLocallyAndBypassesRemoteHome)
{
    const auto remote = smSideRoute(0x1000, /*src=*/0, /*home=*/3, map);
    EXPECT_EQ(remote.serveChip, 0);
    EXPECT_TRUE(remote.bypassHomeLlc);
    EXPECT_FALSE(remote.homeLookup);

    const auto local = smSideRoute(0x1000, 2, 2, map);
    EXPECT_EQ(local.serveChip, 2);
    EXPECT_FALSE(local.bypassHomeLlc);
}

TEST_F(RoutingTest, PartitionedUsesRemotePartitionAndHomeLookup)
{
    const auto remote = partitionedRoute(0x2000, 1, 3, map);
    EXPECT_EQ(remote.serveChip, 1);
    EXPECT_EQ(remote.allocPartition, partitionRemote);
    EXPECT_TRUE(remote.homeLookup);
    EXPECT_EQ(remote.homeAllocPartition, partitionLocal);

    const auto local = partitionedRoute(0x2000, 3, 3, map);
    EXPECT_EQ(local.serveChip, 3);
    EXPECT_EQ(local.allocPartition, partitionLocal);
    EXPECT_FALSE(local.homeLookup);
}

TEST_F(RoutingTest, ApplyRouteCopiesFields)
{
    const auto plan = partitionedRoute(0x3000, 0, 2, map);
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
    for (Addr a = 0; a < 64 * 128; a += 128) {
        EXPECT_EQ(memorySideRoute(a, 2, map).slice,
                  smSideRoute(a, 1, 2, map).slice);
    }
}

} // namespace
} // namespace sac
