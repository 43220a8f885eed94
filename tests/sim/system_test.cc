/** @file End-to-end tests for the System on tiny workloads. */

#include <gtest/gtest.h>

#include "sim/system.hh"
#include "workload/tracegen.hh"

namespace sac {
namespace {

GpuConfig
tinyConfig()
{
    GpuConfig cfg = GpuConfig::scaled(8);
    cfg.warpsPerCluster = 8;
    cfg.sac.profileWindow = 512;
    cfg.sac.profileMinRequests = 400;
    return cfg;
}

WorkloadProfile
sharedProfile()
{
    WorkloadProfile p;
    p.name = "tiny";
    p.ctas = 64;
    p.footprintMB = 4;
    p.trueSharedMB = 1;
    p.falseSharedMB = 1;
    p.phases[0].trueFrac = 0.4;
    p.phases[0].falseFrac = 0.3;
    p.phases[0].writeFrac = 0.1;
    p.phases[0].trueHotMB = 0.25;
    p.phases[0].falseHotMB = 0.5;
    p.phases[0].privHotMB = 0.5;
    p.phases[0].accessesPerWarp = 64;
    p.numKernels = 2;
    return p;
}

std::vector<KernelDescriptor>
kernels(const WorkloadProfile &p)
{
    std::vector<KernelDescriptor> ks;
    for (int k = 0; k < p.numKernels; ++k)
        ks.push_back({k, "k", p.phase(k).accessesPerWarp});
    return ks;
}

RunResult
runOrg(OrgKind kind, const WorkloadProfile &p, std::uint64_t seed = 1)
{
    auto cfg = tinyConfig();
    SharingTraceGen gen(p, cfg, seed);
    System sys(cfg, kind, gen);
    return sys.run(kernels(p));
}

TEST(System, AllOrganizationsCompleteAllAccesses)
{
    const auto p = sharedProfile();
    const auto cfg = tinyConfig();
    const std::uint64_t expected =
        static_cast<std::uint64_t>(cfg.totalClusters()) *
        static_cast<std::uint64_t>(cfg.warpsPerCluster) * 64 * 2;
    for (const auto kind :
         {OrgKind::MemorySide, OrgKind::SmSide, OrgKind::StaticLlc,
          OrgKind::DynamicLlc, OrgKind::Sac}) {
        const auto r = runOrg(kind, p);
        EXPECT_EQ(r.accesses, expected) << r.organization;
        EXPECT_GT(r.cycles, 0u);
        EXPECT_EQ(r.kernelCycles.size(), 2u);
    }
}

TEST(System, ZeroAccessKernelFinishesAtItsLaunchCycle)
{
    // Kernel 0's warps retire inside beginKernel, so it finishes at
    // its launch cycle and kernel 1 launches in the same control step.
    auto p = sharedProfile();
    p.phases.push_back(p.phases[0]);
    p.phases[0].accessesPerWarp = 0;
    const auto r = runOrg(OrgKind::MemorySide, p);

    EXPECT_EQ(r.kernelCycles, (std::vector<Cycle>{0, r.cycles}));
    const auto cfg = tinyConfig();
    EXPECT_EQ(r.accesses,
              static_cast<std::uint64_t>(cfg.totalClusters()) *
                  static_cast<std::uint64_t>(cfg.warpsPerCluster) * 64);
}

TEST(System, DeterministicAcrossRuns)
{
    const auto p = sharedProfile();
    const auto a = runOrg(OrgKind::Sac, p, 7);
    const auto b = runOrg(OrgKind::Sac, p, 7);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.llcRequests, b.llcRequests);
    EXPECT_EQ(a.llcHits, b.llcHits);
    EXPECT_EQ(a.icnBytes, b.icnBytes);
}

TEST(System, MemorySideNeverCachesRemoteData)
{
    const auto r = runOrg(OrgKind::MemorySide, sharedProfile());
    EXPECT_DOUBLE_EQ(r.llcRemoteFraction, 0.0);
    EXPECT_DOUBLE_EQ(r.bwLocalLlc + r.bwRemoteLlc + r.bwLocalMem +
                         r.bwRemoteMem,
                     r.effLlcBw);
}

TEST(System, SmSideCachesRemoteDataWhenSharing)
{
    const auto r = runOrg(OrgKind::SmSide, sharedProfile());
    EXPECT_GT(r.llcRemoteFraction, 0.05);
    // SM-side slices serve their own chip: remote-LLC responses only
    // come from the home level of other organizations.
    EXPECT_DOUBLE_EQ(r.bwRemoteLlc, 0.0);
}

TEST(System, SharingGeneratesInterChipTraffic)
{
    const auto r = runOrg(OrgKind::MemorySide, sharedProfile());
    EXPECT_GT(r.icnBytes, 0u);
    EXPECT_GT(r.dramBytes, 0u);
}

TEST(System, PurelyPrivateWorkloadStaysLocal)
{
    auto p = sharedProfile();
    p.trueSharedMB = 0;
    p.falseSharedMB = 0;
    p.phases[0].trueFrac = 0;
    p.phases[0].falseFrac = 0;
    const auto r = runOrg(OrgKind::MemorySide, p);
    // First-touch places private pages locally: no inter-chip data.
    EXPECT_EQ(r.icnBytes, 0u);
    const auto rs = runOrg(OrgKind::SmSide, p);
    EXPECT_EQ(rs.icnBytes, 0u);
    EXPECT_DOUBLE_EQ(rs.llcRemoteFraction, 0.0);
}

TEST(System, SacRecordsOneDecisionPerKernel)
{
    const auto r = runOrg(OrgKind::Sac, sharedProfile());
    EXPECT_EQ(r.sacDecisions.size(), 2u);
    EXPECT_EQ(r.sacDecisions[0].kernel, 0);
    EXPECT_EQ(r.sacDecisions[1].kernel, 1);
}

TEST(System, HitsNeverExceedRequests)
{
    for (const auto kind : {OrgKind::MemorySide, OrgKind::SmSide,
                            OrgKind::StaticLlc, OrgKind::Sac}) {
        const auto r = runOrg(kind, sharedProfile());
        EXPECT_LE(r.llcHits, r.llcRequests) << r.organization;
        EXPECT_GE(r.llcMissRate(), 0.0);
        EXPECT_LE(r.llcMissRate(), 1.0);
    }
}

TEST(System, HardwareCoherenceInvalidatesOnSharedWrites)
{
    auto p = sharedProfile();
    p.phases[0].writeFrac = 0.3;
    auto cfg = tinyConfig();
    cfg.coherence = CoherenceKind::Hardware;
    SharingTraceGen gen(p, cfg, 1);
    System sys(cfg, OrgKind::SmSide, gen);
    const auto r = sys.run(kernels(p));
    EXPECT_GT(r.invalidations, 0u);
}

TEST(System, SoftwareCoherenceFlushesInsteadOfInvalidating)
{
    auto p = sharedProfile();
    p.phases[0].writeFrac = 0.3;
    const auto r = runOrg(OrgKind::SmSide, p);
    EXPECT_EQ(r.invalidations, 0u);
    EXPECT_GT(r.flushStallCycles, 0u);
}

TEST(System, LoadLatencyIsPlausible)
{
    const auto cfg = tinyConfig();
    const auto r = runOrg(OrgKind::MemorySide, sharedProfile());
    // Latency must at least cover the crossbar round trip and be
    // bounded by something sane.
    EXPECT_GT(r.avgLoadLatency, static_cast<double>(cfg.xbarLatency * 2));
    EXPECT_LT(r.avgLoadLatency, 100000.0);
}

/** Seed sweep: invariants hold for arbitrary seeds. */
class SeedSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SeedSweep, InvariantsHoldAcrossSeeds)
{
    GpuConfig c = GpuConfig::scaled(8);
    c.warpsPerCluster = 4;
    WorkloadProfile p;
    p.name = "sweep";
    p.ctas = 32;
    p.footprintMB = 2;
    p.trueSharedMB = 0.5;
    p.falseSharedMB = 0.5;
    p.phases[0].accessesPerWarp = 48;
    p.numKernels = 1;

    SharingTraceGen gen(p, c, GetParam());
    System sys(c, OrgKind::Sac, gen);
    const auto r = sys.run({{0, "k", 48}});
    const auto expected =
        static_cast<std::uint64_t>(c.totalClusters()) *
        static_cast<std::uint64_t>(c.warpsPerCluster) * 48;
    EXPECT_EQ(r.accesses, expected);
    EXPECT_LE(r.llcHits, r.llcRequests);
    EXPECT_GE(r.effLlcBw, 0.0);
    EXPECT_LE(r.llcRemoteFraction, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1u, 7u, 42u, 1234567u,
                                           0xdeadbeefu));

} // namespace
} // namespace sac
