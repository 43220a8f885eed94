/**
 * @file
 * Integration tests checking the paper's qualitative results hold on
 * reduced-size runs: who wins, in which direction, and that SAC
 * tracks the better organization. Quantitative reproduction lives in
 * the benches; these assertions are deliberately loose so the suite
 * stays robust and fast.
 */

#include <gtest/gtest.h>

#include "sim/engine.hh"
#include "sim/plan.hh"
#include "workload/suite.hh"
#include "workload/tracegen.hh"

namespace sac {
namespace {

/** Shrinks a benchmark for test-speed while keeping its character. */
WorkloadProfile
shrunk(const std::string &name, std::uint64_t apw)
{
    WorkloadProfile p = findBenchmark(name);
    for (auto &ph : p.phases)
        ph.accessesPerWarp = apw;
    return p;
}

GpuConfig
cfg()
{
    auto c = GpuConfig::scaled(4);
    c.warpsPerCluster = 24;
    return c;
}

/** One serial run on the calling thread. */
RunResult
simulate(const WorkloadProfile &p, const GpuConfig &c, OrgKind kind,
         std::uint64_t seed)
{
    return ExperimentEngine::runJob({p, c, kind, seed}).result;
}

class Preference : public ::testing::TestWithParam<const char *>
{
};

TEST_P(Preference, SmSidePreferredBenchmarksPreferSmSide)
{
    const auto p = shrunk(GetParam(), 384);
    const auto mem = simulate(p, cfg(), OrgKind::MemorySide, 1);
    const auto sm = simulate(p, cfg(), OrgKind::SmSide, 1);
    EXPECT_GT(speedup(mem, sm), 1.05)
        << GetParam() << " should prefer the SM-side LLC";
}

INSTANTIATE_TEST_SUITE_P(SmSideGroup, Preference,
                         ::testing::Values("RN", "AN", "SN", "CFD", "BT"));

class MemPreference : public ::testing::TestWithParam<const char *>
{
};

TEST_P(MemPreference, MemorySidePreferredBenchmarksPreferMemorySide)
{
    const auto p = shrunk(GetParam(), 256);
    const auto mem = simulate(p, cfg(), OrgKind::MemorySide, 1);
    const auto sm = simulate(p, cfg(), OrgKind::SmSide, 1);
    EXPECT_LT(speedup(mem, sm), 0.95)
        << GetParam() << " should prefer the memory-side LLC";
}

INSTANTIATE_TEST_SUITE_P(MemSideGroup, MemPreference,
                         ::testing::Values("SRAD", "GEMM", "LUD", "STEN",
                                           "NN"));

class SacTracks : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SacTracks, SacIsNeverMuchWorseThanTheBestFixedOrg)
{
    // Kernels must be long enough to amortize the profiling window,
    // as in the real suite (the window is a fixed request count).
    const auto p = shrunk(GetParam(), 768);
    const auto mem = simulate(p, cfg(), OrgKind::MemorySide, 1);
    const auto sm = simulate(p, cfg(), OrgKind::SmSide, 1);
    const auto sac = simulate(p, cfg(), OrgKind::Sac, 1);
    const double best = std::max(speedup(mem, sm), 1.0);
    const double got = speedup(mem, sac);
    // Within 30% of the best of the two extremes (profiling and
    // reconfiguration overhead are real and modelled).
    EXPECT_GT(got, 0.70 * best) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(TrackingGroup, SacTracks,
                         ::testing::Values("RN", "SN", "GEMM", "NN"));

TEST(Behavior, SmSideRaisesMissRateButMayRaiseBandwidth)
{
    // The paper's counterintuitive headline (Fig. 1): for SM-side
    // preferred workloads the SM-side LLC misses MORE yet performs
    // better, because the effective LLC bandwidth is higher.
    const auto p = shrunk("RN", 384);
    const auto mem = simulate(p, cfg(), OrgKind::MemorySide, 1);
    const auto sm = simulate(p, cfg(), OrgKind::SmSide, 1);
    EXPECT_GT(sm.llcMissRate(), mem.llcMissRate());
    EXPECT_GT(sm.effLlcBw, mem.effLlcBw);
    EXPECT_LT(sm.cycles, mem.cycles);
}

TEST(Behavior, EffectiveBandwidthCorrelatesWithPerformance)
{
    // Section 5.2: speedup correlates with effective LLC bandwidth.
    const auto p = shrunk("SN", 384);
    const auto mem = simulate(p, cfg(), OrgKind::MemorySide, 1);
    const auto sm = simulate(p, cfg(), OrgKind::SmSide, 1);
    const bool sm_faster = sm.cycles < mem.cycles;
    const bool sm_more_bw = sm.effLlcBw > mem.effLlcBw;
    EXPECT_EQ(sm_faster, sm_more_bw);
}

TEST(Behavior, SacChoosesSmSideForSmPreferred)
{
    const auto p = shrunk("RN", 384);
    const auto sac = simulate(p, cfg(), OrgKind::Sac, 1);
    ASSERT_FALSE(sac.sacDecisions.empty());
    EXPECT_EQ(sac.sacDecisions[0].chosen, LlcMode::SmSide);
}

TEST(Behavior, SacChoosesMemorySideForMemPreferred)
{
    const auto p = shrunk("GEMM", 256);
    const auto sac = simulate(p, cfg(), OrgKind::Sac, 1);
    ASSERT_FALSE(sac.sacDecisions.empty());
    EXPECT_EQ(sac.sacDecisions[0].chosen, LlcMode::MemorySide);
    EXPECT_EQ(sac.reconfigurations, 0);
}

TEST(Behavior, InterChipBandwidthShrinksSacAdvantage)
{
    // Fig. 14: more inter-chip bandwidth means less need to cache
    // remote data locally.
    auto p = shrunk("RN", 640);
    auto low = cfg();
    low.interChipBw = 48.0;
    auto high = cfg();
    high.interChipBw = 384.0;
    const auto mem_low = simulate(p, low, OrgKind::MemorySide, 1);
    const auto sac_low = simulate(p, low, OrgKind::Sac, 1);
    const auto mem_high = simulate(p, high, OrgKind::MemorySide, 1);
    const auto sac_high = simulate(p, high, OrgKind::Sac, 1);
    EXPECT_GT(speedup(mem_low, sac_low), speedup(mem_high, sac_high));
}

TEST(Behavior, SmallerInputFlipsMemPreferredTowardSmSide)
{
    // Fig. 13: shrinking the input makes the shared working set fit,
    // so even a memory-side-preferred benchmark turns SM-side.
    auto p = shrunk("GEMM", 256).withInputScale(1.0 / 16.0);
    const auto mem = simulate(p, cfg(), OrgKind::MemorySide, 1);
    const auto sm = simulate(p, cfg(), OrgKind::SmSide, 1);
    EXPECT_GT(speedup(mem, sm), 1.0);
}

} // namespace
} // namespace sac
