/**
 * @file
 * Tests for the ExperimentPlan value layer: the canonical job key and
 * content hash cover exactly the fields that determine simulated
 * results — sensitive to config/workload/seed/org changes, blind to
 * execution policy — and the plan hash is order-sensitive.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/plan.hh"
#include "workload/suite.hh"

namespace sac {
namespace {

ExperimentJob
baseJob()
{
    ExperimentJob job;
    job.profile = findBenchmark("RN");
    job.config = GpuConfig::scaled(4);
    job.org = OrgKind::MemorySide;
    job.seed = 1;
    job.label = "RN/mem-side";
    return job;
}

TEST(PlanHashTest, KeyCarriesSchemaVersionAndIsStablePerJob)
{
    const ExperimentJob job = baseJob();
    const std::string key = canonicalJobKey(job);
    EXPECT_NE(key.find(std::string("schema=") + planSchemaVersion),
              std::string::npos);
    EXPECT_EQ(key, canonicalJobKey(job));
    EXPECT_EQ(contentHash(job), contentHash(job));
}

TEST(PlanHashTest, HashCoversResultDeterminingFields)
{
    const ExperimentJob base = baseJob();
    const std::uint64_t h0 = contentHash(base);

    ExperimentJob j = base;
    j.seed = 2;
    EXPECT_NE(contentHash(j), h0);

    j = base;
    j.org = OrgKind::Sac;
    EXPECT_NE(contentHash(j), h0);

    j = base;
    j.config.llcBytesPerChip *= 2;
    EXPECT_NE(contentHash(j), h0);

    j = base;
    j.config.sac.theta += 0.001;
    EXPECT_NE(contentHash(j), h0);

    j = base;
    j.profile.phases[0].computeGap += 1;
    EXPECT_NE(contentHash(j), h0);

    j = base;
    j.profile.numKernels += 1;
    EXPECT_NE(contentHash(j), h0);
}

TEST(PlanHashTest, HashIgnoresExecutionPolicy)
{
    const ExperimentJob base = baseJob();
    const std::uint64_t h0 = contentHash(base);

    // None of these can change measurements, so none may change the
    // cache key: a cached result stays valid across them.
    ExperimentJob j = base;
    j.label = "renamed";
    EXPECT_EQ(contentHash(j), h0);

    j = base;
    j.fastForward = false; // bit-identical by the differential tests
    EXPECT_EQ(contentHash(j), h0);

    j = base;
    j.telemetry.epoch = 1000;
    j.telemetry.events = true;
    EXPECT_EQ(contentHash(j), h0);

    j = base;
    j.limits.maxCycles = 123456;
    EXPECT_EQ(contentHash(j), h0);

    j = base;
    j.fault.kind = FaultSpec::Kind::Fatal;
    j.fault.atCycle = 10;
    EXPECT_EQ(contentHash(j), h0);
}

TEST(PlanHashTest, PlanHashIsOrderSensitive)
{
    const GpuConfig cfg = GpuConfig::scaled(4);
    const WorkloadProfile rn = findBenchmark("RN");

    ExperimentPlan ab;
    ab.add(rn, cfg, OrgKind::MemorySide).add(rn, cfg, OrgKind::Sac);
    ExperimentPlan ba;
    ba.add(rn, cfg, OrgKind::Sac).add(rn, cfg, OrgKind::MemorySide);
    ExperimentPlan ab2;
    ab2.add(rn, cfg, OrgKind::MemorySide).add(rn, cfg, OrgKind::Sac);

    EXPECT_EQ(ab.contentHash(), ab2.contentHash());
    EXPECT_NE(ab.contentHash(), ba.contentHash());
    EXPECT_NE(ab.contentHash(), ExperimentPlan().contentHash());
}

TEST(PlanHashTest, PlanHashIgnoresPolicyKnobs)
{
    const GpuConfig cfg = GpuConfig::scaled(4);
    ExperimentPlan plan;
    plan.addOrgSweep(findBenchmark("CFD"), cfg);
    const std::uint64_t h0 = plan.contentHash();

    plan.setFastForward(false);
    plan.setLimits(RunLimits{.maxCycles = 1000});
    plan.setFaultPlan(FaultPlan().fail("CFD/SAC", FaultSpec::fatalAt(1)));
    EXPECT_EQ(plan.contentHash(), h0);
}

} // namespace
} // namespace sac
