/**
 * @file
 * The model canary: a handful of tiny jobs whose whole results
 * document is pinned by one committed digest.
 *
 * The jobs reach every part of the model a change can silently move:
 * all five organizations on an SP and an MP benchmark, multi-kernel
 * SAC with a reconfiguration, a SAC window that closes on a telemetry
 * epoch boundary, re-profiling, hardware coherence, sectored lines, a
 * staggered scenario whose launch gaps the at-rest jump crosses, and
 * the timed_out and livelocked diagnostics. The run loop's control
 * order is byte-visible (a sample taken after a window close sees the
 * flush in another epoch), so swapping two of its checks fails here.
 *
 * The digest is canaryDigest in sim/plan.cc, the model fingerprint
 * every result-cache key carries. A change that is meant to alter
 * simulated results updates that constant in the same change and says
 * why, which also retires every result cached before it; any other
 * failure is a regression.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/engine.hh"
#include "sim/plan.hh"
#include "sim/result_io.hh"
#include "sim/system.hh"
#include "workload/scenario.hh"
#include "workload/suite.hh"

namespace sac {
namespace {

GpuConfig
canaryConfig()
{
    GpuConfig cfg = GpuConfig::scaled(8);
    cfg.warpsPerCluster = 4;
    cfg.sac.profileWindow = 512;
    cfg.sac.profileMinRequests = 400;
    return cfg;
}

/** @p name with every phase at @p apw accesses per warp. */
WorkloadProfile
shortProfile(const std::string &name, std::uint64_t apw, int kernels = 1)
{
    WorkloadProfile p = findBenchmark(name);
    p.numKernels = kernels;
    for (auto &phase : p.phases)
        phase.accessesPerWarp = apw;
    return p;
}

/** Appends one job and returns its plan index. */
std::size_t
add(ExperimentPlan &plan, ExperimentJob job)
{
    plan.add(std::move(job));
    return plan.size() - 1;
}

ExperimentJob
job(const WorkloadProfile &profile, OrgKind org,
    const GpuConfig &cfg = canaryConfig())
{
    ExperimentJob j;
    j.profile = profile;
    j.config = cfg;
    j.org = org;
    return j;
}

std::string
hex(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

TEST(ModelCanary, ResultsDigestIsPinned)
{
    ExperimentPlan plan;

    // Every organization on an SP (RN) and an MP (SRAD) benchmark.
    plan.addOrgSweep(shortProfile("RN", 32), canaryConfig());
    plan.addOrgSweep(shortProfile("SRAD", 32), canaryConfig());

    // Six BFS kernels under SAC: per-kernel windows, a reconfiguration
    // and the boundary flushes' clock jumps.
    const std::size_t bfs =
        add(plan, job(shortProfile("BFS", 64, 6), OrgKind::Sac));

    // A window that can only close on its deadline, 512 cycles after
    // a launch at cycle 0: exactly on a 256-cycle epoch boundary, so
    // the sample and the window close fire in the same control step,
    // and the SM-side verdict's reconfiguration shows in whichever
    // epoch the order puts it.
    GpuConfig deadline_cfg = canaryConfig();
    deadline_cfg.sac.profileMinRequests = 1'000'000'000;
    ExperimentJob sampled =
        job(shortProfile("SRAD", 256), OrgKind::Sac, deadline_cfg);
    sampled.telemetry.epoch = 256;
    sampled.telemetry.events = true;
    const std::size_t sampled_at = add(plan, std::move(sampled));

    // Re-profiling while the kernel runs, reverting an SM-side verdict.
    GpuConfig reprofile_cfg = canaryConfig();
    reprofile_cfg.sac.reprofileInterval = 512;
    const std::size_t reprofiled = add(
        plan, job(shortProfile("SRAD", 256), OrgKind::Sac, reprofile_cfg));

    // Hardware coherence and sectored lines.
    GpuConfig hw_cfg = canaryConfig();
    hw_cfg.coherence = CoherenceKind::Hardware;
    add(plan, job(shortProfile("SN", 64), OrgKind::SmSide, hw_cfg));
    GpuConfig sector_cfg = canaryConfig();
    sector_cfg.sectorsPerLine = 4;
    add(plan, job(shortProfile("GEMM", 64), OrgKind::Sac, sector_cfg));

    // examples/scenario_staggered.json at apw 8: each stream finishes
    // before the next launches, so the jump crosses both gaps. Each
    // variant makes one more of the jump's thresholds visible: the
    // occupancy interval and the launches (Static keeps local lines
    // across the boundary flush; 1500 divides neither launch cycle),
    // the dynamic epoch (its way moves are traced), the telemetry
    // epoch (300 divides neither launch cycle) and the cycle deadline
    // (inside the first gap).
    ExperimentJob staggered;
    staggered.config = canaryConfig();
    staggered.scenario = scenarioFromJson(R"({
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
    std::vector<std::size_t> gapped;
    ExperimentJob variant = staggered;
    variant.org = OrgKind::StaticLlc;
    variant.config.occupancyInterval = 1500;
    gapped.push_back(add(plan, variant));
    variant = staggered;
    variant.org = OrgKind::DynamicLlc;
    variant.config.dynamicLlc.epoch = 1000;
    variant.telemetry.events = true;
    gapped.push_back(add(plan, variant));
    variant = staggered;
    variant.org = OrgKind::Sac;
    variant.telemetry.epoch = 300;
    gapped.push_back(add(plan, variant));
    variant = staggered;
    variant.org = OrgKind::MemorySide;
    variant.limits.maxCycles = 5000;
    const std::size_t gap_deadline = add(plan, variant);

    // The two watchdog diagnostics, occupancy digest included.
    ExperimentJob timed = job(shortProfile("RN", 4096), OrgKind::MemorySide);
    timed.limits.maxCycles = 500;
    add(plan, timed);
    ExperimentJob wedged = job(shortProfile("RN", 4096), OrgKind::Sac);
    wedged.limits.livelockCycles = 600;
    add(plan, std::move(wedged));

    std::vector<System::FastForwardStats> ff(plan.size());
    ExperimentEngine engine(2);
    engine.onSystem([&ff](std::size_t index, const System &system) {
        ff[index] = system.fastForwardStats();
    });
    const auto records = engine.run(plan);

    // Each job still reaches what it is here for.
    ASSERT_EQ(records.size(), plan.size());
    EXPECT_GT(records[bfs].result.reconfigurations, 0);
    EXPECT_GT(records[sampled_at].result.reconfigurations, 0);
    EXPECT_GT(records[reprofiled].result.sacDecisions.size(), 1u);
    EXPECT_GT(records[reprofiled].result.reconfigurations, 1);
    for (const std::size_t i : gapped)
        EXPECT_GT(ff[i].skippedCycles, 0u) << records[i].label;
    EXPECT_GT(records[gapped[0]].result.llcRemoteFraction, 0.0);
    EXPECT_EQ(records[gap_deadline].result.status, RunStatus::TimedOut);
    EXPECT_NE(records[gap_deadline].result.diagnostic.find("@ cycle 5001,"),
              std::string::npos)
        << records[gap_deadline].result.diagnostic;
    EXPECT_EQ(records[records.size() - 2].result.status, RunStatus::TimedOut);
    EXPECT_EQ(records[records.size() - 1].result.status,
              RunStatus::Livelocked);
    for (std::size_t i = 0; i + 2 < records.size(); ++i) {
        if (i == gap_deadline)
            continue;
        EXPECT_EQ(records[i].result.status, RunStatus::Ok)
            << records[i].label << ": " << records[i].result.diagnostic;
    }

    const std::uint64_t digest =
        contentHashOfKey(result_io::toJson(records));
    EXPECT_EQ(hex(digest), hex(canaryDigest))
        << "the canary jobs' results changed; if that is intended, "
           "update canaryDigest in sim/plan.cc and say why in the "
           "change";
}

} // namespace
} // namespace sac
