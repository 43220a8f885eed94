/**
 * @file
 * Fault-tolerance tests for the experiment engine: per-job isolation,
 * deterministic fault injection and watchdog deadlines. Resuming an
 * interrupted sweep through the result cache is covered in
 * tests/service/result_cache_test.cc.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/log.hh"
#include "sim/engine.hh"
#include "sim/fault_injection.hh"
#include "sim/plan.hh"
#include "sim/result_io.hh"
#include "workload/scenario.hh"
#include "workload/suite.hh"

namespace sac {
namespace {

/** Small but real configuration so plans finish in milliseconds. */
GpuConfig
tinyConfig()
{
    GpuConfig cfg = GpuConfig::scaled(8);
    cfg.warpsPerCluster = 4;
    cfg.sac.profileWindow = 512;
    cfg.sac.profileMinRequests = 400;
    return cfg;
}

WorkloadProfile
tinyProfile(const std::string &name, std::uint64_t apw = 32)
{
    WorkloadProfile p = findBenchmark(name);
    p.numKernels = 1;
    p.phases[0].accessesPerWarp = apw;
    return p;
}

/** Three-org RN sweep; labels RN/Memory-side, RN/SM-side, RN/SAC. */
ExperimentPlan
threeOrgPlan()
{
    ExperimentPlan plan;
    plan.addOrgSweep(tinyProfile("RN"), tinyConfig(),
                     {OrgKind::MemorySide, OrgKind::SmSide,
                      OrgKind::Sac});
    return plan;
}

std::string
docOf(const std::vector<RunRecord> &records)
{
    return result_io::toJson(records);
}

TEST(FaultTolerance, FaultedJobIsIsolatedFromTheRestOfTheSweep)
{
    const auto clean = ExperimentEngine(1).run(threeOrgPlan());

    ExperimentPlan plan = threeOrgPlan();
    plan.setFaultPlan(FaultPlan().fail(
        "RN/SM-side", FaultSpec::fatalAt(100, "disk on fire")));
    const auto records = ExperimentEngine(2).run(plan);

    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[1].result.status, RunStatus::Failed);
    EXPECT_EQ(records[1].result.diagnostic, "disk on fire");
    EXPECT_EQ(records[1].result.organization, "SM-side");
    EXPECT_EQ(records[1].result.cycles, 0u);

    // The surviving jobs' measurements are byte-identical to a
    // fault-free sweep's.
    EXPECT_EQ(records[0].result.status, RunStatus::Ok);
    EXPECT_EQ(records[2].result.status, RunStatus::Ok);
    EXPECT_EQ(result_io::toJson(records[0].result),
              result_io::toJson(clean[0].result));
    EXPECT_EQ(result_io::toJson(records[2].result),
              result_io::toJson(clean[2].result));

    // Panics (simulator bugs) are contained the same way.
    ExperimentPlan panicking = threeOrgPlan();
    panicking.setFaultPlan(FaultPlan().fail(
        "RN/Memory-side", FaultSpec::panicAt(50, "impossible state")));
    const auto panicked = ExperimentEngine(2).run(panicking);
    EXPECT_EQ(panicked[0].result.status, RunStatus::Failed);
    EXPECT_NE(panicked[0].result.diagnostic.find("impossible state"),
              std::string::npos);
    EXPECT_EQ(panicked[1].result.status, RunStatus::Ok);
}

TEST(FaultTolerance, ValidationFaultFailsBeforeSimulating)
{
    ExperimentPlan plan = threeOrgPlan();
    plan.setFaultPlan(FaultPlan().fail(
        "RN/SAC", FaultSpec::validation("bad trace header")));
    const auto records = ExperimentEngine(1).run(plan);
    EXPECT_EQ(records[2].result.status, RunStatus::Failed);
    EXPECT_NE(records[2].result.diagnostic.find("RN/SAC"),
              std::string::npos);
    EXPECT_NE(records[2].result.diagnostic.find("bad trace header"),
              std::string::npos);
    EXPECT_EQ(records[2].result.cycles, 0u);
}

TEST(FaultTolerance, LivelockWatchdogReportsOccupancyDigest)
{
    // A long kernel with the livelock cap pulled down to 600 cycles:
    // the watchdog must classify it and attach the occupancy dump.
    ExperimentPlan plan;
    ExperimentJob job;
    job.profile = tinyProfile("RN", 4096);
    job.config = tinyConfig();
    job.org = OrgKind::MemorySide;
    job.limits.livelockCycles = 600;
    plan.add(std::move(job));

    const auto records = ExperimentEngine(1).run(plan);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].result.status, RunStatus::Livelocked);
    const std::string &d = records[0].result.diagnostic;
    EXPECT_NE(d.find("livelock"), std::string::npos) << d;
    EXPECT_NE(d.find("occupancy digest"), std::string::npos) << d;
    EXPECT_NE(d.find("chip0"), std::string::npos) << d;
    EXPECT_NE(d.find("sliceMshrs"), std::string::npos) << d;
}

TEST(FaultTolerance, IdleLaunchGapIsNotALivelock)
{
    // The livelock cap counts from the latest launch only while some
    // stream has a kernel resident. A second stream launching at cycle
    // 100,000, long after the first one finished, must not trip a
    // 20,000-cycle cap — with the at-rest jump or without it.
    ExperimentJob job;
    job.scenario.streams.push_back(
        StreamSpec{tinyProfile("RN", 8), 0, 1.0, 0});
    job.scenario.streams.push_back(
        StreamSpec{tinyProfile("SN", 8), 100000, 1.0, 0});
    job.config = tinyConfig();
    job.org = OrgKind::MemorySide;
    job.limits.livelockCycles = 20000;
    ExperimentPlan plan;
    plan.add(job);
    job.fastForward = false;
    plan.add(std::move(job));

    const auto records = ExperimentEngine(1).run(plan);
    ASSERT_EQ(records.size(), 2u);
    for (const auto &rec : records) {
        ASSERT_EQ(rec.result.status, RunStatus::Ok) << rec.result.diagnostic;
        ASSERT_EQ(rec.result.streams.size(), 2u);
        EXPECT_LT(rec.result.streams[0].finishCycle, 20000u);
        EXPECT_EQ(rec.result.streams[1].launchCycle, 100000u);
    }
    EXPECT_EQ(result_io::toJson(records[0].result),
              result_io::toJson(records[1].result));
}

TEST(FaultTolerance, CycleDeadlineTimesOutDeterministically)
{
    ExperimentPlan plan;
    ExperimentJob job;
    job.profile = tinyProfile("RN", 4096);
    job.config = tinyConfig();
    job.org = OrgKind::MemorySide;
    job.limits.maxCycles = 500;
    plan.add(job);
    job.fastForward = false;
    plan.add(std::move(job));

    const auto records = ExperimentEngine(1).run(plan);
    ASSERT_EQ(records.size(), 2u);
    for (const auto &rec : records) {
        EXPECT_EQ(rec.result.status, RunStatus::TimedOut);
        EXPECT_NE(rec.result.diagnostic.find("500"), std::string::npos);
    }
    // Fast-forward on and off hit the deadline with the same message:
    // the watchdog participates in the wake protocol.
    EXPECT_EQ(records[0].result.diagnostic, records[1].result.diagnostic);
}

TEST(FaultTolerance, FaultedSweepsAreByteIdenticalAcrossWorkerCounts)
{
    const auto faulted_plan = [] {
        ExperimentPlan plan = threeOrgPlan();
        plan.addOrgSweep(tinyProfile("GEMM"), tinyConfig(),
                         {OrgKind::MemorySide, OrgKind::Sac});
        plan.setFaultPlan(
            FaultPlan()
                .fail("RN/SM-side", FaultSpec::fatalAt(200))
                .fail("GEMM/Memory-side", FaultSpec::panicAt(100))
                .fail("GEMM/SAC", FaultSpec::validation()));
        return plan;
    };
    const std::string doc1 = docOf(ExperimentEngine(1).run(faulted_plan()));
    const std::string doc2 = docOf(ExperimentEngine(2).run(faulted_plan()));
    const std::string doc8 = docOf(ExperimentEngine(8).run(faulted_plan()));
    EXPECT_EQ(doc1, doc2);
    EXPECT_EQ(doc1, doc8);
    EXPECT_NE(doc1.find("\"status\":\"failed\""), std::string::npos);
}

} // namespace
} // namespace sac
