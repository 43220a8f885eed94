/**
 * @file
 * Fault-tolerance tests for the experiment engine, on failures the
 * program really produces: an invalid configuration, a throwing
 * System inspector, the cycle deadline and the livelock cap. Each
 * failing job is isolated from the rest of its sweep, and a sweep's
 * document is byte-identical for any worker count. Resuming an
 * interrupted sweep through the result cache is covered in
 * tests/service/result_cache_test.cc.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/log.hh"
#include "sim/engine.hh"
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

/** A job the engine rejects before building its System. */
ExperimentJob
invalidConfigJob()
{
    ExperimentJob job;
    job.profile = tinyProfile("RN");
    job.config = tinyConfig();
    job.config.sectorsPerLine = 3;
    job.org = OrgKind::Sac;
    return job;
}

TEST(FaultTolerance, FaultedJobIsIsolatedFromTheRestOfTheSweep)
{
    const auto clean = ExperimentEngine(1).run(threeOrgPlan());

    // The System inspector is the last thing a job runs; if it
    // throws, that job is recorded as failed. A user error on one
    // job and a simulator bug on another.
    ExperimentEngine engine(2);
    engine.onSystem([](std::size_t index, const System &) {
        if (index == 0)
            panic("impossible state");
        if (index == 1)
            fatal("disk on fire");
    });
    const auto records = engine.run(threeOrgPlan());

    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[1].result.status, RunStatus::Failed);
    EXPECT_EQ(records[1].result.diagnostic, "disk on fire");
    EXPECT_EQ(records[1].result.organization, "SM-side");
    EXPECT_EQ(records[1].result.cycles, 0u);
    // Panics (simulator bugs) are contained the same way.
    EXPECT_EQ(records[0].result.status, RunStatus::Failed);
    EXPECT_EQ(records[0].result.diagnostic, "impossible state");

    // The surviving job's measurements are byte-identical to a
    // failure-free sweep's.
    EXPECT_EQ(records[2].result.status, RunStatus::Ok);
    EXPECT_EQ(result_io::toJson(records[2].result),
              result_io::toJson(clean[2].result));
}

TEST(FaultTolerance, ValidationFaultFailsBeforeSimulating)
{
    ExperimentPlan plan = threeOrgPlan();
    plan.add(invalidConfigJob());
    const std::uint64_t runs = ExperimentEngine::simulatedSystemRuns();
    const auto records = ExperimentEngine(1).run(plan);
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(records[3].result.status, RunStatus::Failed);
    EXPECT_NE(records[3].result.diagnostic.find("GpuConfig.sectorsPerLine"),
              std::string::npos)
        << records[3].result.diagnostic;
    EXPECT_EQ(records[3].result.organization, "SAC");
    EXPECT_EQ(records[3].result.cycles, 0u);
    // Only the three valid jobs built and ran a System.
    EXPECT_EQ(ExperimentEngine::simulatedSystemRuns(), runs + 3);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(records[i].result.status, RunStatus::Ok);
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
    // The jump on and off hit the deadline with the same message: the
    // jump stops at the deadline.
    EXPECT_EQ(records[0].result.diagnostic, records[1].result.diagnostic);
}

TEST(FaultTolerance, FaultedSweepsAreByteIdenticalAcrossWorkerCounts)
{
    // Every status in one sweep: ok jobs, a job the inspector fails, a
    // job with an invalid configuration, a cycle deadline and a
    // livelock cap.
    const auto mixed_plan = [] {
        ExperimentPlan plan = threeOrgPlan();
        plan.addOrgSweep(tinyProfile("GEMM"), tinyConfig(),
                         {OrgKind::MemorySide, OrgKind::Sac});
        plan.add(invalidConfigJob());
        ExperimentJob job;
        job.profile = tinyProfile("RN", 4096);
        job.config = tinyConfig();
        job.org = OrgKind::Sac;
        job.limits.maxCycles = 500;
        plan.add(job);
        job.limits = RunLimits{.livelockCycles = 600};
        plan.add(std::move(job));
        return plan;
    };
    const auto doc = [&](unsigned workers) {
        ExperimentEngine engine(workers);
        engine.onSystem([](std::size_t index, const System &) {
            if (index == 1)
                fatal("inspector failed");
        });
        return docOf(engine.run(mixed_plan()));
    };
    const std::string doc1 = doc(1);
    EXPECT_EQ(doc1, doc(2));
    EXPECT_EQ(doc1, doc(8));
    for (const char *status : {"ok", "failed", "timed_out", "livelocked"}) {
        EXPECT_NE(doc1.find(std::string("\"status\":\"") + status + "\""),
                  std::string::npos)
            << status;
    }
}

} // namespace
} // namespace sac
