/** @file Tests for the experiment helpers and table formatting. */

#include <gtest/gtest.h>

#include <sstream>

#include "common/log.hh"
#include "sim/engine.hh"
#include "sim/plan.hh"
#include "sim/report.hh"
#include "workload/suite.hh"

namespace sac {
namespace {

TEST(Runner, DataScaleMatchesLlcRatio)
{
    EXPECT_DOUBLE_EQ(dataScale(GpuConfig::paperBaseline()), 1.0);
    EXPECT_DOUBLE_EQ(dataScale(GpuConfig::scaled(4)), 4.0);
    EXPECT_DOUBLE_EQ(dataScale(GpuConfig::scaled(8)), 8.0);
}

TEST(Runner, KernelsFollowProfilePhases)
{
    WorkloadProfile p;
    p.name = "x";
    p.numKernels = 3;
    KernelPhase a;
    a.accessesPerWarp = 100;
    KernelPhase b;
    b.accessesPerWarp = 200;
    p.phases = {a, b};
    const auto ks = kernelsFor(p);
    ASSERT_EQ(ks.size(), 3u);
    EXPECT_EQ(ks[0].accessesPerWarp, 100u);
    EXPECT_EQ(ks[1].accessesPerWarp, 200u);
    EXPECT_EQ(ks[2].accessesPerWarp, 100u);
    EXPECT_EQ(ks[2].index, 2);
    EXPECT_EQ(ks[2].stream, 0);

    // A scenario stream's kernel-count override and stream tag.
    const auto stream = kernelsFor(p, 5, 2);
    ASSERT_EQ(stream.size(), 5u);
    EXPECT_EQ(stream[4].index, 4);
    EXPECT_EQ(stream[4].name, "x-k4");
    EXPECT_EQ(stream[3].accessesPerWarp, 200u);
    EXPECT_EQ(stream[4].stream, 2);
}

TEST(Runner, SpeedupAndHarmonicMean)
{
    RunResult base;
    base.cycles = 1000;
    RunResult fast;
    fast.cycles = 500;
    EXPECT_DOUBLE_EQ(speedup(base, fast), 2.0);
    EXPECT_DOUBLE_EQ(speedup(base, base), 1.0);
    // hmean(1, 2) = 2 / (1 + 0.5) = 4/3.
    EXPECT_NEAR(harmonicMean({1.0, 2.0}), 4.0 / 3.0, 1e-12);
    EXPECT_THROW(harmonicMean({}), PanicError);
    EXPECT_THROW(harmonicMean({1.0, 0.0}), PanicError);
}

TEST(Report, TableAlignsColumnsAndRows)
{
    report::Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22222"});
    std::ostringstream os;
    t.print(os);
    const auto text = os.str();
    EXPECT_NE(text.find("name"), std::string::npos);
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("22222"), std::string::npos);
    EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(Report, RowArityIsChecked)
{
    report::Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), PanicError);
}

TEST(Report, NumberFormatting)
{
    EXPECT_EQ(report::num(1.2345, 2), "1.23");
    EXPECT_EQ(report::times(1.758), "1.76x");
    EXPECT_EQ(report::percent(0.5), "50.0%");
}

TEST(Runner, RunOrganizationsProducesAllFiveOrganizations)
{
    // Tiny but real end-to-end run through the public API.
    GpuConfig cfg = GpuConfig::scaled(8);
    cfg.warpsPerCluster = 4;
    WorkloadProfile p = findBenchmark("RN");
    p.numKernels = 1;
    p.phases[0].accessesPerWarp = 32;
    ExperimentPlan plan;
    plan.addOrgSweep(p, cfg);
    const auto all = ExperimentEngine(1).run(plan);
    EXPECT_EQ(all.size(), 5u);
    for (const auto &rec : all) {
        EXPECT_GT(rec.result.cycles, 0u) << rec.result.organization;
        EXPECT_GT(rec.result.accesses, 0u);
    }
}

} // namespace
} // namespace sac
