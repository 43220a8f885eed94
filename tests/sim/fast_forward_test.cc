/**
 * @file
 * Differential tests for the event-driven scheduler core.
 *
 * The core's contract is absolute: for any workload, organization and
 * worker count, an event-driven run produces byte-identical results —
 * every counter, every SAC decision, every telemetry epoch sample and
 * trace event — to the per-cycle reference loop. These tests serialize
 * whole RunResults (losslessly, through result_io) and compare the
 * strings, so any divergence in any field fails loudly.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/engine.hh"
#include "sim/plan.hh"
#include "sim/result_io.hh"
#include "sim/system.hh"
#include "workload/suite.hh"
#include "workload/tracegen.hh"

namespace sac {
namespace {

/** Small but real configuration so the 2x5-org matrix stays fast. */
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

/** Full telemetry so timelines and events are part of the comparison. */
telemetry::Options
fullTelemetry()
{
    telemetry::Options opts;
    opts.epoch = 256;
    opts.events = true;
    return opts;
}

RunRecord
runOne(OrgKind org, bool fast_forward, const std::string &bench = "CFD")
{
    ExperimentJob job;
    job.profile = diffProfile(bench);
    job.config = diffConfig();
    job.org = org;
    job.telemetry = fullTelemetry();
    job.fastForward = fast_forward;
    return ExperimentEngine::runJob(job);
}

TEST(FastForward, AllOrganizationsBitIdentical)
{
    for (const OrgKind org : ExperimentPlan::allOrganizations()) {
        const RunRecord ff = runOne(org, true);
        const RunRecord ref = runOne(org, false);
        EXPECT_EQ(result_io::toJson(ff.result),
                  result_io::toJson(ref.result))
            << "org " << toString(org);
        // Telemetry must actually be present, or the comparison above
        // proves less than it claims.
        ASSERT_TRUE(ff.result.timeline.has_value()) << toString(org);
        EXPECT_FALSE(ff.result.timeline->samples.empty())
            << toString(org);
    }
}

TEST(FastForward, SacEndToEndWithBothSharingShapes)
{
    // CFD (above) leans memory-side; RN's sharing leans SM-side, so
    // between them the SAC controller exercises both decisions, the
    // boundary flushes and the re-profiling path.
    for (const char *bench : {"RN", "GEMM"}) {
        const RunRecord ff = runOne(OrgKind::Sac, true, bench);
        const RunRecord ref = runOne(OrgKind::Sac, false, bench);
        EXPECT_EQ(result_io::toJson(ff.result),
                  result_io::toJson(ref.result))
            << bench;
        EXPECT_FALSE(ff.result.sacDecisions.empty()) << bench;
    }
}

TEST(FastForward, BfsSacBoundaryFlushJumpMatchesReference)
{
    // Regression: six BFS kernels under SAC alternate SM-side and
    // memory-side verdicts, and every software-coherence boundary
    // flush jumps the clock. Wake keys left below the landing cycle
    // used to pop in key order, ahead of the clusters the next launch
    // woke, and the network ticked twice in one cycle.
    ExperimentJob job;
    job.profile = findBenchmark("BFS");
    for (auto &phase : job.profile.phases)
        phase.accessesPerWarp = 128;
    job.config = GpuConfig::scaled(8);
    job.org = OrgKind::Sac;
    job.seed = 1;
    const RunRecord ff = ExperimentEngine::runJob(job);
    job.fastForward = false;
    const RunRecord ref = ExperimentEngine::runJob(job);
    ASSERT_EQ(ff.result.status, RunStatus::Ok) << ff.result.diagnostic;
    EXPECT_EQ(result_io::toJson(ff.result), result_io::toJson(ref.result));
    EXPECT_GT(ff.result.flushStallCycles, 0u);
    EXPECT_GT(ff.result.reconfigurations, 0);
}

TEST(FastForward, SkipsActuallyHappen)
{
    // Guard against the layer silently degrading into the reference
    // loop (e.g. a component that always reports "now"): a run must
    // skip a meaningful share of its cycles.
    const GpuConfig cfg = diffConfig();
    const WorkloadProfile scaled =
        diffProfile("CFD").scaledData(dataScale(cfg));
    SharingTraceGen gen(scaled, cfg, 1);
    System system(cfg, OrgKind::MemorySide, gen);
    system.setFastForward(true);
    const RunResult res = system.run(kernelsFor(scaled));
    const auto &ff = system.fastForwardStats();
    EXPECT_GT(ff.skips, 0u);
    EXPECT_GT(ff.skippedCycles, res.cycles / 20)
        << "fast-forward skipped under 5% of cycles on an idle-heavy "
           "tiny machine";
}

TEST(FastForward, DisabledMeansNoSkips)
{
    const GpuConfig cfg = diffConfig();
    const WorkloadProfile scaled =
        diffProfile("CFD").scaledData(dataScale(cfg));
    SharingTraceGen gen(scaled, cfg, 1);
    System system(cfg, OrgKind::MemorySide, gen);
    system.setFastForward(false);
    system.run(kernelsFor(scaled));
    EXPECT_EQ(system.fastForwardStats().skips, 0u);
    EXPECT_EQ(system.fastForwardStats().skippedCycles, 0u);
}

TEST(FastForward, IdenticalAcrossWorkerCounts)
{
    // The full matrix: both sharing shapes (CFD leans memory-side,
    // RN leans SM-side) x five organizations x {event-driven,
    // reference}, run with 1, 2 and 8 engine workers. Everything —
    // counters, SAC decisions, telemetry timelines and events — must
    // match the serial event-driven run byte for byte.
    const GpuConfig cfg = diffConfig();
    ExperimentPlan plan;
    plan.enableTelemetry(fullTelemetry());
    for (const char *bench : {"CFD", "RN"}) {
        const WorkloadProfile p = diffProfile(bench);
        for (const OrgKind org : ExperimentPlan::allOrganizations()) {
            ExperimentJob job;
            job.profile = p;
            job.config = cfg;
            job.org = org;
            job.telemetry = fullTelemetry();
            plan.add(job);
            ExperimentJob ref = job;
            ref.fastForward = false;
            ref.label = p.name + "/" + toString(org) + "/ref";
            plan.add(ref);
        }
    }

    const auto serial = ExperimentEngine(1).run(plan);
    ASSERT_EQ(serial.size(), 20u);
    std::vector<std::string> expected;
    for (const auto &rec : serial)
        expected.push_back(result_io::toJson(rec.result));
    // Each event-driven/reference pair in the serial run must already
    // agree, and timelines must actually be present in both.
    for (std::size_t i = 0; i < serial.size(); i += 2) {
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
