/** @file Unit tests for the LLC organization policies. */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "llc/organization.hh"

namespace sac {
namespace {

TEST(Organization, FactoryBuildsEveryKind)
{
    for (const auto kind :
         {OrgKind::MemorySide, OrgKind::SmSide, OrgKind::StaticLlc,
          OrgKind::DynamicLlc, OrgKind::Sac}) {
        const Organization org(kind);
        EXPECT_EQ(org.kind(), kind);
        EXPECT_STREQ(org.name(), toString(kind));
        EXPECT_EQ(org.mode(), LlcMode::MemorySide);
    }
}

TEST(Organization, CoherenceNeeds)
{
    EXPECT_FALSE(Organization(OrgKind::MemorySide).cachesRemoteData());
    EXPECT_TRUE(Organization(OrgKind::SmSide).cachesRemoteData());
    EXPECT_TRUE(Organization(OrgKind::StaticLlc).cachesRemoteData());
    EXPECT_TRUE(Organization(OrgKind::DynamicLlc).cachesRemoteData());

    // The partitioned organizations' boundary flush keeps home lines.
    EXPECT_TRUE(Organization(OrgKind::StaticLlc).flushesReplicasOnly());
    EXPECT_TRUE(Organization(OrgKind::DynamicLlc).flushesReplicasOnly());
    EXPECT_FALSE(Organization(OrgKind::SmSide).flushesReplicasOnly());
    EXPECT_FALSE(Organization(OrgKind::Sac).flushesReplicasOnly());
}

TEST(Organization, OnlySmSideHasSeparateNoc)
{
    EXPECT_TRUE(Organization(OrgKind::SmSide).separateRemoteNoc());
    EXPECT_FALSE(Organization(OrgKind::Sac).separateRemoteNoc());
    EXPECT_FALSE(Organization(OrgKind::MemorySide).separateRemoteNoc());
}

TEST(Organization, WaySplits)
{
    EXPECT_EQ(Organization(OrgKind::MemorySide).initialWaySplit(16), 16);
    EXPECT_EQ(Organization(OrgKind::SmSide).initialWaySplit(16), 16);
    EXPECT_EQ(Organization(OrgKind::StaticLlc).initialWaySplit(16), 8);
    EXPECT_EQ(Organization(OrgKind::DynamicLlc).initialWaySplit(16), 8);
    EXPECT_EQ(Organization(OrgKind::Sac).initialWaySplit(16), 16);
}

TEST(Organization, OnlyDynamicRepartitions)
{
    EXPECT_TRUE(Organization(OrgKind::DynamicLlc).dynamicPartitioning());
    EXPECT_FALSE(Organization(OrgKind::StaticLlc).dynamicPartitioning());
}

TEST(Organization, SacSwitchesRoutingWithMode)
{
    const AddressMap map(4, 2, 128);
    // A miss from chip 0 to a line homed on chip 3.
    const auto serve = [&](const Organization &org) {
        return org.route(0x1000, 0, 3, map).serveChip;
    };

    Organization sac(OrgKind::Sac);
    EXPECT_EQ(sac.mode(), LlcMode::MemorySide);
    EXPECT_EQ(serve(sac), 3);
    EXPECT_FALSE(sac.cachesRemoteData());
    EXPECT_STREQ(sac.modeName(), "memory-side");

    sac.setMode(LlcMode::SmSide);
    EXPECT_EQ(serve(sac), 0);
    EXPECT_TRUE(sac.route(0x1000, 0, 3, map).bypassHomeLlc);
    EXPECT_TRUE(sac.cachesRemoteData());
    EXPECT_STREQ(sac.modeName(), "SM-side");

    sac.setMode(LlcMode::MemorySide);
    EXPECT_EQ(serve(sac), 3);

    // The fixed organizations route by kind and never switch.
    EXPECT_EQ(serve(Organization(OrgKind::MemorySide)), 3);
    EXPECT_EQ(serve(Organization(OrgKind::SmSide)), 0);
    EXPECT_TRUE(
        Organization(OrgKind::StaticLlc).route(0x1000, 0, 3, map).homeLookup);
    Organization mem(OrgKind::MemorySide);
    EXPECT_THROW(mem.setMode(LlcMode::SmSide), PanicError);
}

TEST(Organization, DisplayNames)
{
    EXPECT_STREQ(toString(OrgKind::MemorySide), "Memory-side");
    EXPECT_STREQ(toString(OrgKind::Sac), "SAC");
    EXPECT_STREQ(Organization(OrgKind::StaticLlc).name(), "Static");
    EXPECT_STREQ(Organization(OrgKind::StaticLlc).modeName(), "Static");
}

} // namespace
} // namespace sac
