/** @file Tests for the parallel experiment engine. */

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "common/log.hh"
#include "sim/engine.hh"
#include "sim/plan.hh"
#include "sim/result_io.hh"
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
tinyProfile(const std::string &name)
{
    WorkloadProfile p = findBenchmark(name);
    p.numKernels = 1;
    p.phases[0].accessesPerWarp = 32;
    return p;
}

/** A mixed plan: two workloads, three organizations, two seeds. */
ExperimentPlan
mixedPlan()
{
    const auto cfg = tinyConfig();
    ExperimentPlan plan;
    for (const char *name : {"RN", "GEMM"}) {
        const auto p = tinyProfile(name);
        plan.addOrgSweep(p, cfg,
                         {OrgKind::MemorySide, OrgKind::SmSide,
                          OrgKind::Sac});
        plan.add(p, cfg, OrgKind::MemorySide, 7);
    }
    return plan;
}

TEST(ExperimentPlan, DefaultsLabelsAndKeepsOrder)
{
    const auto cfg = tinyConfig();
    ExperimentPlan plan;
    plan.add(tinyProfile("RN"), cfg, OrgKind::Sac);
    plan.add(tinyProfile("RN"), cfg, OrgKind::SmSide, 3, "custom");
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan[0].label, "RN/SAC");
    EXPECT_EQ(plan[1].label, "custom");
    EXPECT_EQ(plan[1].seed, 3u);
}

TEST(ExperimentPlan, OrgSweepUsesPresentationOrder)
{
    const auto &orgs = ExperimentPlan::allOrganizations();
    ASSERT_EQ(orgs.size(), 5u);
    EXPECT_EQ(orgs.front(), OrgKind::MemorySide);
    EXPECT_EQ(orgs.back(), OrgKind::Sac);

    ExperimentPlan plan;
    plan.addOrgSweep(tinyProfile("RN"), tinyConfig());
    ASSERT_EQ(plan.size(), 5u);
    for (std::size_t i = 0; i < orgs.size(); ++i)
        EXPECT_EQ(plan[i].org, orgs[i]);
}

TEST(ExperimentEngine, ResultsAreOrderedAndLabelled)
{
    const auto plan = mixedPlan();
    const auto records = ExperimentEngine(2).run(plan);
    ASSERT_EQ(records.size(), plan.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].jobIndex, i);
        EXPECT_EQ(records[i].label, plan[i].label);
        EXPECT_EQ(records[i].result.organization,
                  toString(plan[i].org));
        EXPECT_GT(records[i].result.cycles, 0u);
        EXPECT_GE(records[i].wallMs, 0.0);
    }
}

TEST(ExperimentEngine, ThreadCountDoesNotChangeResults)
{
    const auto plan = mixedPlan();

    // Byte-identical measurements for 1, 2 and 8 workers: serialize
    // every RunResult (all counters, all decisions) and compare the
    // strings. Lossless serialization makes this an exact check.
    const auto serial = ExperimentEngine(1).run(plan);
    ASSERT_EQ(serial.size(), plan.size());
    std::vector<std::string> expected;
    expected.reserve(serial.size());
    for (const auto &rec : serial)
        expected.push_back(result_io::toJson(rec.result));

    for (const unsigned threads : {2u, 8u}) {
        const auto parallel = ExperimentEngine(threads).run(plan);
        ASSERT_EQ(parallel.size(), plan.size()) << threads;
        for (std::size_t i = 0; i < parallel.size(); ++i) {
            EXPECT_EQ(result_io::toJson(parallel[i].result),
                      expected[i])
                << "job " << i << " with " << threads << " threads";
        }
    }
}

TEST(ExperimentEngine, ProgressFiresOncePerJobAndIsSerialized)
{
    const auto plan = mixedPlan();
    ExperimentEngine engine(4);

    std::atomic<int> inside{0};
    std::set<std::size_t> seen;
    std::size_t calls = 0;
    bool overlapped = false;
    engine.onProgress([&](const EngineProgress &p) {
        if (inside.fetch_add(1) != 0)
            overlapped = true;
        ++calls;
        seen.insert(p.record.jobIndex);
        EXPECT_EQ(p.total, plan.size());
        EXPECT_GE(p.completed, 1u);
        EXPECT_LE(p.completed, plan.size());
        inside.fetch_sub(1);
    });

    engine.run(plan);
    EXPECT_EQ(calls, plan.size());
    EXPECT_EQ(seen.size(), plan.size());
    EXPECT_FALSE(overlapped);
}

TEST(ExperimentEngine, BadJobConfigurationIsIsolated)
{
    GpuConfig bad = tinyConfig();
    bad.sectorsPerLine = 3; // validate() rejects this

    // The engine isolates the failing job: the sweep completes, the
    // good job's measurements are intact and the bad one carries the
    // validation error as its diagnostic.
    ExperimentPlan plan;
    plan.add(tinyProfile("RN"), tinyConfig(), OrgKind::MemorySide);
    plan.add(tinyProfile("RN"), bad, OrgKind::MemorySide);
    const auto records = ExperimentEngine(2).run(plan);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].result.status, RunStatus::Ok);
    EXPECT_GT(records[0].result.cycles, 0u);
    EXPECT_EQ(records[1].result.status, RunStatus::Failed);
    EXPECT_NE(records[1].result.diagnostic.find("sectorsPerLine"),
              std::string::npos);

    // The raw single-job entry point still propagates, so callers
    // that want the exception keep it.
    EXPECT_THROW(ExperimentEngine::runJob(plan[1], 1), FatalError);
}

TEST(Runner, RunOrganizationsIsOrdered)
{
    ExperimentPlan plan;
    plan.addOrgSweep(tinyProfile("RN"), tinyConfig());
    const auto records = ExperimentEngine(2).run(plan);
    const auto &orgs = ExperimentPlan::allOrganizations();
    ASSERT_EQ(records.size(), orgs.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].result.organization, toString(orgs[i]));
        EXPECT_GT(records[i].result.cycles, 0u);
    }
}

TEST(Telemetry, TimelineAbsentByDefault)
{
    const auto rec = ExperimentEngine::runJob(
        {tinyProfile("RN"), tinyConfig(), OrgKind::Sac, 1, "RN/sac"});
    EXPECT_FALSE(rec.result.timeline.has_value());
}

TEST(ExperimentPlan, EnableTelemetryCoversExistingAndFutureJobs)
{
    const auto cfg = tinyConfig();
    ExperimentPlan plan;
    plan.add(tinyProfile("RN"), cfg, OrgKind::MemorySide);
    plan.enableTelemetry({.epoch = 128, .events = true});
    plan.add(tinyProfile("RN"), cfg, OrgKind::SmSide);
    ASSERT_EQ(plan.size(), 2u);
    for (std::size_t i = 0; i < plan.size(); ++i) {
        EXPECT_EQ(plan[i].telemetry.epoch, 128u) << i;
        EXPECT_TRUE(plan[i].telemetry.events) << i;
    }
}

TEST(Telemetry, TimelinesAreIdenticalAcrossWorkerCounts)
{
    auto plan = mixedPlan();
    plan.enableTelemetry({.epoch = 256, .events = true});

    // Timelines contain only simulated-time data, so the serialized
    // results — timeline included — must stay byte-identical no
    // matter how many workers ran the plan.
    const auto serial = ExperimentEngine(1).run(plan);
    ASSERT_EQ(serial.size(), plan.size());
    std::vector<std::string> expected;
    expected.reserve(serial.size());
    for (const auto &rec : serial) {
        ASSERT_TRUE(rec.result.timeline.has_value()) << rec.label;
        EXPECT_FALSE(rec.result.timeline->samples.empty()) << rec.label;
        EXPECT_FALSE(rec.result.timeline->events.empty()) << rec.label;
        expected.push_back(result_io::toJson(rec.result));
    }

    for (const unsigned threads : {2u, 8u}) {
        const auto parallel = ExperimentEngine(threads).run(plan);
        ASSERT_EQ(parallel.size(), plan.size()) << threads;
        for (std::size_t i = 0; i < parallel.size(); ++i) {
            EXPECT_EQ(result_io::toJson(parallel[i].result),
                      expected[i])
                << "job " << i << " with " << threads << " threads";
        }
    }
}

TEST(ExperimentEngine, JobTelemetryIsPopulated)
{
    const auto plan = mixedPlan();
    EngineTelemetry t;
    const auto records = ExperimentEngine(2).run(plan, &t);

    EXPECT_EQ(t.workers, 2u);
    EXPECT_GT(t.wallMs, 0.0);
    EXPECT_GT(t.busyMs, 0.0);
    ASSERT_EQ(t.workerBusyMs.size(), 2u);
    EXPECT_NEAR(t.workerBusyMs[0] + t.workerBusyMs[1], t.busyMs, 1e-9);
    EXPECT_GT(t.utilization(), 0.0);
    EXPECT_LE(t.utilization(), 1.0 + 1e-9);

    for (const auto &rec : records) {
        EXPECT_GE(rec.queueMs, 0.0);
        EXPECT_LT(rec.worker, 2u);
        EXPECT_GE(rec.wallMs, 0.0);
    }
}

} // namespace
} // namespace sac
