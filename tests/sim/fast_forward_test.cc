/**
 * @file
 * Differential tests for the run loop's at-rest clock jump.
 *
 * While no stream has a kernel resident and the machine is at rest,
 * System::run jumps the clock to the next control deadline
 * instead of ticking an idle machine. The jump must be invisible: for
 * any organization and worker count, a run with it produces
 * byte-identical results — every counter, every SAC decision, every
 * telemetry epoch sample and trace event — to the pure per-cycle loop
 * (fastForward = false). The jump only fires across launch gaps, so
 * every case here is a scenario with one, and each one checks that
 * the jump actually skipped cycles, or the comparison proves nothing.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hh"
#include "sim/plan.hh"
#include "sim/result_io.hh"
#include "sim/system.hh"
#include "workload/scenario.hh"
#include "workload/suite.hh"

namespace sac {
namespace {

/** Small but real configuration so the 5-org matrices stay fast. */
GpuConfig
diffConfig()
{
    GpuConfig cfg = GpuConfig::scaled(8);
    cfg.warpsPerCluster = 4;
    cfg.sac.profileWindow = 512;
    cfg.sac.profileMinRequests = 400;
    return cfg;
}

WorkloadProfile
diffProfile(const std::string &name)
{
    WorkloadProfile p = findBenchmark(name);
    p.numKernels = 2; // SAC decides per kernel; exercise two windows
    p.phases[0].accessesPerWarp = 48;
    return p;
}

/** Cycle the second stream of gapScenario() launches at. */
constexpr Cycle secondLaunch = 60000;

/**
 * Two streams, the second launching long after the first has
 * finished: an idle launch gap the jump skips.
 */
Scenario
gapScenario(const std::string &first, const std::string &second)
{
    Scenario scn;
    scn.streams.push_back(StreamSpec{diffProfile(first), 0, 1.0, 0});
    scn.streams.push_back(
        StreamSpec{diffProfile(second), secondLaunch, 1.0, 0});
    return scn;
}

/** Full telemetry so timelines and events are part of the comparison. */
telemetry::Options
fullTelemetry()
{
    telemetry::Options opts;
    opts.epoch = 256;
    opts.events = true;
    return opts;
}

/** One run's result and the System's jump counters. */
struct JumpRun
{
    RunResult result;
    System::FastForwardStats ff;
};

/** Runs @p scn the way ExperimentEngine::runJob does, seed 1. */
JumpRun
runScenario(const Scenario &scn, OrgKind org, bool fast_forward,
            GpuConfig cfg = diffConfig())
{
    cfg.seed = 1;
    const Scenario scaled = scn.scaledData(dataScale(cfg));
    StreamTraceMux mux(scaled, cfg, 1);
    System system(cfg, org, mux);
    system.setFastForward(fast_forward);
    system.enableTelemetry(fullTelemetry());
    JumpRun out;
    out.result = system.run(scaled);
    out.ff = system.fastForwardStats();
    return out;
}

/**
 * Runs @p scn with and without the jump under @p org and expects the
 * same bytes, an ok status and a jump that skipped cycles.
 */
JumpRun
expectTwinsAgree(const Scenario &scn, OrgKind org,
                 const GpuConfig &cfg = diffConfig())
{
    const JumpRun jump = runScenario(scn, org, true, cfg);
    const JumpRun ref = runScenario(scn, org, false, cfg);
    EXPECT_EQ(jump.result.status, RunStatus::Ok) << jump.result.diagnostic;
    EXPECT_EQ(result_io::toJson(jump.result), result_io::toJson(ref.result))
        << scn.name() << "/" << toString(org);
    EXPECT_GT(jump.ff.skippedCycles, 0u)
        << scn.name() << "/" << toString(org) << ": the jump never fired";
    // Telemetry must actually be present, or the comparison above
    // proves less than it claims.
    EXPECT_TRUE(jump.result.timeline.has_value() &&
                !jump.result.timeline->samples.empty())
        << scn.name() << "/" << toString(org);
    return jump;
}

TEST(FastForward, AllOrganizationsBitIdentical)
{
    for (const OrgKind org : ExperimentPlan::allOrganizations())
        expectTwinsAgree(gapScenario("CFD", "SRAD"), org);
}

TEST(FastForward, StaggeredScenarioAtApw8BitIdentical)
{
    // examples/scenario_staggered.json with every stream at apw 8, on
    // the default machine: each stream finishes before the next one
    // launches, so the run crosses two launch gaps.
    const Scenario scn = scenarioFromJson(R"({
      "schema": "sac.scenario.v1",
      "streams": [
        {"benchmark": "RN", "launchCycle": 0, "clusterShare": 2.0,
         "kernels": 2, "apw": 8},
        {"benchmark": "GEMM", "launchCycle": 8192, "clusterShare": 1.0,
         "inputScale": 0.5, "apw": 8},
        {"benchmark": "BP", "launchCycle": 16384, "clusterShare": 1.0,
         "inputScale": 0.5, "apw": 8}
      ]
    })");
    for (const OrgKind org : ExperimentPlan::allOrganizations())
        expectTwinsAgree(scn, org, GpuConfig::scaled(4));
}

TEST(FastForward, SacEndToEndWithBothSharingShapes)
{
    // RN's sharing leans SM-side and GEMM's memory-side, so between
    // them the SAC controller exercises both decisions, the boundary
    // flushes and the window re-opening after the gap.
    for (const auto &[first, second] :
         {std::pair{"RN", "GEMM"}, std::pair{"GEMM", "RN"}}) {
        const JumpRun run =
            expectTwinsAgree(gapScenario(first, second), OrgKind::Sac);
        ASSERT_EQ(run.result.streams.size(), 2u) << first;
        for (const auto &s : run.result.streams)
            EXPECT_FALSE(s.sacDecisions.empty()) << first << " " << s.name;
    }
}

TEST(FastForward, BfsSacBoundaryFlushJumpMatchesReference)
{
    // Six BFS kernels under SAC alternate SM-side and memory-side
    // verdicts, and every software-coherence boundary flush jumps the
    // clock. Those flush jumps happen only when one stream owns every
    // cluster, so the launch gap here is the one stream's late first
    // launch: the at-rest jump and the flush jumps share one run.
    Scenario scn;
    WorkloadProfile bfs = findBenchmark("BFS");
    for (auto &phase : bfs.phases)
        phase.accessesPerWarp = 128;
    scn.streams.push_back(StreamSpec{bfs, 20000, 1.0, 0});
    const JumpRun run =
        expectTwinsAgree(scn, OrgKind::Sac, GpuConfig::scaled(8));
    EXPECT_GT(run.result.flushStallCycles, 0u);
    EXPECT_GT(run.result.reconfigurations, 0);
}

TEST(FastForward, SkipsActuallyHappen)
{
    // Guard against the jump silently degrading into the per-cycle
    // loop: it must skip most of the idle launch gap.
    const JumpRun run =
        runScenario(gapScenario("CFD", "SRAD"), OrgKind::MemorySide, true);
    ASSERT_EQ(run.result.streams.size(), 2u);
    const Cycle gap = secondLaunch - run.result.streams[0].finishCycle;
    ASSERT_LT(run.result.streams[0].finishCycle, secondLaunch);
    EXPECT_GT(run.ff.skips, 0u);
    EXPECT_GT(run.ff.skippedCycles, gap / 2)
        << "the jump skipped under half of a " << gap << "-cycle gap";
    // The scheduler counters kept for perfbench's metrics read 0.
    EXPECT_EQ(run.ff.schedCycles, 0u);
    EXPECT_EQ(run.ff.heapPops, 0u);
    EXPECT_EQ(run.ff.denseCycles, 0u);
}

TEST(FastForward, DisabledMeansNoSkips)
{
    const JumpRun run =
        runScenario(gapScenario("CFD", "SRAD"), OrgKind::MemorySide, false);
    EXPECT_EQ(run.result.status, RunStatus::Ok);
    EXPECT_EQ(run.ff.skips, 0u);
    EXPECT_EQ(run.ff.skippedCycles, 0u);
}

TEST(FastForward, IdenticalAcrossWorkerCounts)
{
    // The full matrix: both sharing shapes first (CFD leans
    // memory-side, RN leans SM-side) x five organizations x {jump,
    // per-cycle loop}, run with 1, 2 and 8 engine workers.
    // Everything — counters, SAC decisions, telemetry timelines and
    // events — must match the serial run with the jump byte for byte.
    const GpuConfig cfg = diffConfig();
    ExperimentPlan plan;
    plan.enableTelemetry(fullTelemetry());
    for (const auto &[first, second] :
         {std::pair{"CFD", "RN"}, std::pair{"RN", "CFD"}}) {
        const Scenario scn = gapScenario(first, second);
        for (const OrgKind org : ExperimentPlan::allOrganizations()) {
            ExperimentJob job;
            job.scenario = scn;
            job.config = cfg;
            job.org = org;
            job.telemetry = fullTelemetry();
            plan.add(job);
            ExperimentJob ref = job;
            ref.fastForward = false;
            ref.label =
                scn.name() + "/" + std::string(toString(org)) + "/ref";
            plan.add(ref);
        }
    }

    const auto serial = ExperimentEngine(1).run(plan);
    ASSERT_EQ(serial.size(), 20u);
    std::vector<std::string> expected;
    for (const auto &rec : serial)
        expected.push_back(result_io::toJson(rec.result));
    // Each jump/per-cycle pair in the serial run must already agree,
    // and timelines must actually be present in both.
    for (std::size_t i = 0; i < serial.size(); i += 2) {
        EXPECT_EQ(serial[i].result.status, RunStatus::Ok) << serial[i].label;
        EXPECT_EQ(expected[i], expected[i + 1]) << serial[i].label;
        ASSERT_TRUE(serial[i].result.timeline.has_value())
            << serial[i].label;
        EXPECT_FALSE(serial[i].result.timeline->samples.empty())
            << serial[i].label;
    }

    for (const unsigned workers : {2u, 8u}) {
        const auto records = ExperimentEngine(workers).run(plan);
        ASSERT_EQ(records.size(), plan.size()) << workers;
        for (std::size_t i = 0; i < records.size(); ++i) {
            EXPECT_EQ(result_io::toJson(records[i].result), expected[i])
                << "job " << i << " with " << workers << " workers";
        }
    }
}

} // namespace
} // namespace sac
