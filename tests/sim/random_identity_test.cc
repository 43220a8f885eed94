/**
 * @file
 * Randomized tests of the one kernel path and of the run loop's
 * at-rest clock jump.
 *
 * RandomIdentity draws multi-stream scenarios with launch gaps —
 * stream count, workload shapes, warp count, launch cycles,
 * organization — from a seeded generator, runs each with the jump and
 * with the pure per-cycle loop (fastForward = false), and requires the
 * serialized results (full telemetry) to match byte for byte. Every
 * case must actually take the jump.
 *
 * The MergedPath family aims at the hard cases of the one kernel
 * path: multi-kernel SAC under software and hardware coherence
 * (re-profiling on in some cases), Static/Dynamic replica-only
 * boundary flushes, and two-stream scenarios under SAC and Dynamic.
 * A one-stream run never has an idle launch gap, so the single-stream
 * kinds check invariants; the two-stream kind also compares against
 * its per-cycle twin. One ctest case per seed, so they spread across
 * cores.
 *
 * Seeds are fixed: a failure is reproducible by its case index alone.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "sim/engine.hh"
#include "sim/plan.hh"
#include "sim/result_io.hh"
#include "sim/system.hh"
#include "workload/scenario.hh"
#include "workload/suite.hh"

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
        // accesses), half idle-heavy (tens to hundreds), so
        // multi-phase profiles alternate the two within one run.
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

        GpuConfig cfg = GpuConfig::scaled(8);
        cfg.seed = 1;
        cfg.warpsPerCluster = 2 + static_cast<int>(rng.nextBounded(7));
        cfg.sac.profileWindow = 256 + rng.nextBounded(512);
        cfg.sac.profileMinRequests = 200;
        const auto orgs = ExperimentPlan::allOrganizations();
        const OrgKind org =
            orgs[static_cast<std::size_t>(rng.nextBounded(orgs.size()))];

        // Two or three streams. The first launches late, so every case
        // opens with an idle gap; the later ones launch 20-60K cycles
        // apart, mostly after the previous stream has finished.
        Scenario scn;
        const std::size_t streams = 2 + rng.nextBounded(2);
        Cycle launch = 1000 + rng.nextBounded(4000);
        for (std::size_t s = 0; s < streams; ++s) {
            WorkloadProfile p = randomProfile(rng);
            p.numKernels = 1 + static_cast<int>(rng.nextBounded(2));
            scn.streams.push_back(
                StreamSpec{p, launch, uniform(rng, 0.5, 2.0), 0});
            launch += 20000 + rng.nextBounded(40000);
        }
        const Scenario scaled = scn.scaledData(dataScale(cfg));

        const auto run = [&](bool fast_forward) {
            StreamTraceMux mux(scaled, cfg, 1);
            System system(cfg, org, mux);
            system.setFastForward(fast_forward);
            system.enableTelemetry({.epoch = 256, .events = true});
            RunResult r = system.run(scaled);
            return std::pair{std::move(r), system.fastForwardStats()};
        };
        const auto [jump, ff] = run(true);
        const RunResult ref = run(false).first;

        const std::string what = "case " + std::to_string(i) + ": " +
                                 scn.name() + "/" + toString(org);
        EXPECT_EQ(jump.status, RunStatus::Ok) << what << jump.diagnostic;
        EXPECT_EQ(result_io::toJson(jump), result_io::toJson(ref)) << what;
        EXPECT_GT(ff.skippedCycles, 0u) << what << ": the jump never fired";
    }
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

    std::size_t kernels = static_cast<std::size_t>(job.profile.numKernels);
    std::size_t tenants = 1;
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
        kernels += static_cast<std::size_t>(second.numKernels);
        tenants = 2;
        break;
      }
    }

    const RunRecord rec = ExperimentEngine::runJob(job);
    const RunResult &r = rec.result;
    const std::string what = "case " + std::to_string(index) + ": " +
                             job.benchmarkName() + "/" + toString(job.org);
    ASSERT_EQ(r.status, RunStatus::Ok) << what << r.diagnostic;
    // One kernelCycles entry per kernel launched.
    EXPECT_EQ(r.kernelCycles.size(), kernels) << what;
    if (job.org == OrgKind::Sac)
        EXPECT_FALSE(r.sacDecisions.empty()) << what;
    if (kind == MergedCase::ReplicaFlush)
        EXPECT_GT(r.flushStallCycles, 0u) << what;
    if (kind != MergedCase::TwoStreams) {
        EXPECT_TRUE(r.streams.empty()) << what;
        return;
    }

    // Two streams: the per-stream counters partition the machine
    // totals, and the per-cycle twin produces the same bytes.
    ASSERT_EQ(r.streams.size(), tenants) << what;
    std::uint64_t accesses = 0, l1_hits = 0, l1_misses = 0;
    std::uint64_t llc_requests = 0, llc_hits = 0;
    std::size_t stream_kernels = 0;
    Cycle flush_stall = 0;
    for (const auto &s : r.streams) {
        accesses += s.accesses;
        l1_hits += s.l1Hits;
        l1_misses += s.l1Misses;
        llc_requests += s.llcRequests;
        llc_hits += s.llcHits;
        stream_kernels += s.kernelCycles.size();
        flush_stall += s.flushStallCycles;
    }
    EXPECT_EQ(accesses, r.accesses) << what;
    EXPECT_EQ(l1_hits, r.l1Hits) << what;
    EXPECT_EQ(l1_misses, r.l1Misses) << what;
    EXPECT_EQ(llc_requests, r.llcRequests) << what;
    EXPECT_EQ(llc_hits, r.llcHits) << what;
    EXPECT_EQ(stream_kernels, r.kernelCycles.size()) << what;
    EXPECT_LE(flush_stall, r.flushStallCycles) << what;

    job.fastForward = false;
    const RunRecord ref = ExperimentEngine::runJob(job);
    EXPECT_EQ(result_io::toJson(r), result_io::toJson(ref.result)) << what;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergedPath, ::testing::Range(0, mergedCases));

} // namespace
} // namespace sac
