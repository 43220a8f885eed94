/**
 * @file
 * Randomized differential test for the event-driven core.
 *
 * The hand-written identity matrix (fast_forward_test.cc) pins the
 * benchmark suite's shapes; this file searches the space around them.
 * Each case draws a workload shape — warp count, compute gaps, access
 * counts, sharing mix, kernel count, organization — from a seeded
 * generator, runs it event-driven and with the per-cycle reference
 * loop, and requires the serialized results (sac.results.v3, full
 * telemetry) to match byte for byte. Shapes deliberately mix dense
 * phases (tiny compute gaps, most components ticking every cycle)
 * with idle-heavy ones (huge gaps), so runs cross the scheduler's
 * dense/sparse regime boundary in both directions.
 *
 * Seeds are fixed: a failure is reproducible by its case index alone.
 *
 * The MergedPath family aims the same comparison at the hard cases of
 * the one kernel path: multi-kernel SAC under software and hardware
 * coherence (re-profiling on in some cases), Static/Dynamic
 * replica-only boundary flushes, and two-stream scenarios under SAC
 * and Dynamic. One ctest case per seed, so they spread across cores.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hh"
#include "sim/engine.hh"
#include "sim/plan.hh"
#include "sim/result_io.hh"
#include "sim/system.hh"
#include "workload/scenario.hh"
#include "workload/suite.hh"
#include "workload/tracegen.hh"

namespace sac {
namespace {

/** Uniform double in [lo, hi). */
double
uniform(Rng &rng, double lo, double hi)
{
    return lo + (hi - lo) * rng.nextDouble();
}

/**
 * A random but plausible workload: based on a random Table 4
 * benchmark, with the behavioural knobs redrawn across the ranges the
 * suite spans (and a little beyond).
 */
WorkloadProfile
randomProfile(Rng &rng)
{
    const auto &suite = benchmarkSuite();
    WorkloadProfile p =
        suite[static_cast<std::size_t>(rng.nextBounded(suite.size()))];
    p.numKernels = 1 + static_cast<int>(rng.nextBounded(3));

    const std::size_t phases = 1 + rng.nextBounded(3);
    p.phases.resize(phases);
    for (auto &ph : p.phases) {
        // Sharing mix: fractions sum to at most ~0.9.
        ph.trueFrac = uniform(rng, 0.05, 0.6);
        ph.falseFrac = uniform(rng, 0.05, 0.9 - ph.trueFrac);
        ph.writeFrac = uniform(rng, 0.0, 0.3);
        ph.trueHotFrac = uniform(rng, 0.5, 1.0);
        ph.falseHotFrac = uniform(rng, 0.5, 1.0);
        ph.privHotFrac = uniform(rng, 0.5, 1.0);
        ph.rereadFrac = uniform(rng, 0.0, 0.4);
        // Compute gap: half the draws are dense (0-3 cycles between
        // accesses), half idle-heavy (tens to hundreds). Multi-phase
        // profiles therefore alternate regimes within one run.
        ph.computeGap = rng.nextBool(0.5)
                            ? static_cast<unsigned>(rng.nextBounded(4))
                            : 30 + static_cast<unsigned>(
                                       rng.nextBounded(300));
        ph.accessesPerWarp = 24 + rng.nextBounded(80);
        ph.trueRegionFrac = uniform(rng, 0.3, 1.0);
    }
    return p;
}

TEST(RandomIdentity, RandomShapesAreBitIdenticalToReference)
{
    constexpr int cases = 8;
    for (int i = 0; i < cases; ++i) {
        Rng rng(0x5ac0 + static_cast<std::uint64_t>(i));

        ExperimentJob job;
        job.profile = randomProfile(rng);
        job.config = GpuConfig::scaled(8);
        job.config.warpsPerCluster =
            2 + static_cast<int>(rng.nextBounded(7));
        job.config.sac.profileWindow = 256 + rng.nextBounded(512);
        job.config.sac.profileMinRequests = 200;
        const auto orgs = ExperimentPlan::allOrganizations();
        job.org = orgs[static_cast<std::size_t>(
            rng.nextBounded(orgs.size()))];
        job.telemetry.epoch = 256;
        job.telemetry.events = true;

        job.fastForward = true;
        const RunRecord ed = ExperimentEngine::runJob(job);
        job.fastForward = false;
        const RunRecord ref = ExperimentEngine::runJob(job);

        EXPECT_EQ(result_io::toJson(ed.result),
                  result_io::toJson(ref.result))
            << "case " << i << ": " << job.profile.name << "/"
            << toString(job.org) << " warps="
            << job.config.warpsPerCluster;
    }
}

TEST(RandomIdentity, RegimeBoundaryIsCrossedAndInvisible)
{
    // A shape built to straddle the hysteresis thresholds: a dense
    // kernel (gap 0, every warp hammering) followed by an idle-heavy
    // one (gap 400). The event-driven run must enter the dense regime
    // at least once, leave it again, and still match the reference
    // loop byte for byte.
    GpuConfig cfg = GpuConfig::scaled(8);
    cfg.warpsPerCluster = 6;
    WorkloadProfile p = findBenchmark("CFD");
    p.numKernels = 2;
    p.phases.resize(2);
    p.phases[0].computeGap = 0;
    p.phases[0].accessesPerWarp = 96;
    p.phases[1].computeGap = 400;
    p.phases[1].accessesPerWarp = 24;

    const WorkloadProfile scaled = p.scaledData(dataScale(cfg));

    SharingTraceGen edGen(scaled, cfg, 1);
    System ed(cfg, OrgKind::Sac, edGen);
    ed.setFastForward(true);
    const RunResult edRes = ed.run(kernelsFor(scaled));

    const auto &ff = ed.fastForwardStats();
    EXPECT_GE(ff.denseSpans, 1u) << "dense regime never entered";
    EXPECT_GT(ff.denseCycles, 0u);
    EXPECT_LT(ff.denseCycles, ff.schedCycles)
        << "dense regime never exited";
    EXPECT_GT(ff.heapPops, 0u) << "sparse regime never ran";

    SharingTraceGen refGen(scaled, cfg, 1);
    System ref(cfg, OrgKind::Sac, refGen);
    ref.setFastForward(false);
    const RunResult refRes = ref.run(kernelsFor(scaled));

    EXPECT_EQ(result_io::toJson(edRes), result_io::toJson(refRes));
}

/** What a MergedPath case exercises; the case index picks one. */
enum class MergedCase
{
    SacSoftware,  //!< multi-kernel SAC, boundary flushes jump the clock
    SacHardware,  //!< multi-kernel SAC, directory coherence
    ReplicaFlush, //!< multi-kernel Static/Dynamic, replica-only flushes
    TwoStreams,   //!< co-resident streams under SAC or Dynamic
};

constexpr int mergedCaseKinds = 4;
constexpr int mergedCases = 36;

class MergedPath : public ::testing::TestWithParam<int>
{
};

TEST_P(MergedPath, EventDrivenMatchesReference)
{
    const int index = GetParam();
    const auto kind = static_cast<MergedCase>(index % mergedCaseKinds);
    Rng rng(0x1d3a + static_cast<std::uint64_t>(index));

    ExperimentJob job;
    job.profile = randomProfile(rng);
    job.profile.numKernels = 2 + static_cast<int>(rng.nextBounded(3));
    job.config = GpuConfig::scaled(8);
    job.config.warpsPerCluster = 2 + static_cast<int>(rng.nextBounded(7));
    job.config.sac.profileWindow = 256 + rng.nextBounded(512);
    job.config.sac.profileMinRequests = 200;
    // No EAB margin: more SM-side verdicts, so more reconfigurations
    // and boundary flushes per case.
    job.config.sac.theta = 0.0;
    // Re-profiling on in half the SAC and two-stream cases, at an
    // interval short enough to re-open windows inside a kernel.
    if (index % 8 < 2 || index % 8 == 7)
        job.config.sac.reprofileInterval = 1000 + rng.nextBounded(3000);
    job.telemetry.epoch = 256;
    job.telemetry.events = true;

    switch (kind) {
      case MergedCase::SacSoftware: job.org = OrgKind::Sac; break;
      case MergedCase::SacHardware:
        job.org = OrgKind::Sac;
        job.config.coherence = CoherenceKind::Hardware;
        break;
      case MergedCase::ReplicaFlush:
        job.org = rng.nextBool(0.5) ? OrgKind::StaticLlc
                                    : OrgKind::DynamicLlc;
        break;
      case MergedCase::TwoStreams: {
        job.org = rng.nextBool(0.5) ? OrgKind::Sac : OrgKind::DynamicLlc;
        WorkloadProfile second = randomProfile(rng);
        second.numKernels = 1 + static_cast<int>(rng.nextBounded(2));
        const Cycle launch = rng.nextBool(0.5) ? 0 : rng.nextBounded(4096);
        const double share = uniform(rng, 0.3, 2.0);
        job.scenario.streams.push_back(StreamSpec{job.profile, 0, 1.0, 0});
        job.scenario.streams.push_back(StreamSpec{second, launch, share, 0});
        break;
      }
    }

    job.fastForward = true;
    const RunRecord ed = ExperimentEngine::runJob(job);
    job.fastForward = false;
    const RunRecord ref = ExperimentEngine::runJob(job);

    ASSERT_EQ(ed.result.status, RunStatus::Ok) << ed.result.diagnostic;
    EXPECT_EQ(result_io::toJson(ed.result), result_io::toJson(ref.result))
        << "case " << index << ": " << job.benchmarkName() << "/"
        << toString(job.org);

    // The case exercised what it claims.
    EXPECT_GE(ed.result.kernelCycles.size(), 2u);
    if (kind == MergedCase::TwoStreams) {
        EXPECT_EQ(ed.result.streams.size(), 2u);
    } else {
        EXPECT_TRUE(ed.result.streams.empty());
    }
    if (job.org == OrgKind::Sac)
        EXPECT_FALSE(ed.result.sacDecisions.empty());
    if (kind == MergedCase::ReplicaFlush)
        EXPECT_GT(ed.result.flushStallCycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergedPath, ::testing::Range(0, mergedCases));

} // namespace
} // namespace sac
