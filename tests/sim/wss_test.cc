/** @file Tests for the working-set analyzer (Fig. 11 machinery). */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "sim/wss.hh"

namespace sac {
namespace {

GpuConfig
cfg()
{
    GpuConfig c = GpuConfig::scaled(8);
    c.warpsPerCluster = 4;
    return c;
}

WorkloadProfile
profile()
{
    WorkloadProfile p;
    p.name = "wss";
    p.ctas = 64;
    p.footprintMB = 8;
    p.trueSharedMB = 2;
    p.falseSharedMB = 2;
    p.phases[0].trueFrac = 0.4;
    p.phases[0].falseFrac = 0.3;
    p.phases[0].trueHotMB = 0.5;
    p.phases[0].falseHotMB = 1.0;
    p.phases[0].privHotMB = 1.0;
    p.phases[0].rereadFrac = 0.0;
    return p;
}

TEST(WorkingSet, LargerWindowsSeeLargerWorkingSets)
{
    auto c = cfg();
    SharingTraceGen gen(profile(), c, 1);
    WorkingSetAnalyzer wss(c, gen);
    const auto small = wss.measure(1000, 64000);
    const auto medium = wss.measure(4000, 64000);
    const auto large = wss.measure(16000, 64000);
    EXPECT_LT(small.totalMB(), medium.totalMB());
    EXPECT_LT(medium.totalMB(), large.totalMB());
}

TEST(WorkingSet, AllClassesPresent)
{
    auto c = cfg();
    SharingTraceGen gen(profile(), c, 1);
    WorkingSetAnalyzer wss(c, gen);
    const auto s = wss.measure(8000, 32000);
    EXPECT_GT(s.trueSharedMB, 0.0);
    EXPECT_GT(s.falseSharedMB, 0.0);
    EXPECT_GT(s.nonSharedMB, 0.0);
}

TEST(WorkingSet, ReplicatedAtLeastPlainTrueShared)
{
    auto c = cfg();
    SharingTraceGen gen(profile(), c, 1);
    WorkingSetAnalyzer wss(c, gen);
    const auto s = wss.measure(8000, 32000);
    EXPECT_GE(s.trueSharedReplicatedMB, s.trueSharedMB);
    // With 4 chips, replication can at most quadruple the set.
    EXPECT_LE(s.trueSharedReplicatedMB, 4.0 * s.trueSharedMB + 1e-9);
    EXPECT_GE(s.totalReplicatedMB(), s.totalMB() - s.trueSharedMB);
}

TEST(WorkingSet, BoundedByRegionSizes)
{
    auto c = cfg();
    const auto p = profile();
    SharingTraceGen gen(p, c, 1);
    WorkingSetAnalyzer wss(c, gen);
    const auto s = wss.measure(32000, 64000);
    EXPECT_LE(s.trueSharedMB, p.trueSharedMB + 0.1);
    EXPECT_LE(s.falseSharedMB, p.falseSharedMB + 0.1);
    EXPECT_LE(s.nonSharedMB, p.privateMB() + 0.1);
}

TEST(WorkingSet, ZeroWindowPanics)
{
    auto c = cfg();
    SharingTraceGen gen(profile(), c, 1);
    WorkingSetAnalyzer wss(c, gen);
    EXPECT_THROW(wss.measure(0, 100), PanicError);
}

} // namespace
} // namespace sac
