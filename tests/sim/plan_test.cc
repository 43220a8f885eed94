/**
 * @file
 * Tests for the ExperimentPlan value layer: the canonical job key and
 * content hash cover exactly the fields that determine simulated
 * results — sensitive to config/workload/seed/org changes and to the
 * model fingerprint, blind to execution policy.
 */

#include <gtest/gtest.h>

#include <cstdio>
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
    // The schema, then the model fingerprint, lead every key.
    char model[20];
    std::snprintf(model, sizeof(model), "%016llx",
                  static_cast<unsigned long long>(canaryDigest));
    EXPECT_EQ(key.find(std::string("schema=") + planSchemaVersion +
                       ";model=" + model + ";"),
              0u)
        << key;
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
    j.config.sac.drainLatency += 1;
    EXPECT_NE(contentHash(j), h0);

    j = base;
    j.profile.phases[0].computeGap += 1;
    EXPECT_NE(contentHash(j), h0);

    j = base;
    j.profile.numKernels += 1;
    EXPECT_NE(contentHash(j), h0);
}

TEST(PlanHashTest, KeyCarriesOnlyTheKnobsTheOrganizationReads)
{
    // Memory-side jobs never build a SAC controller or a dynamic
    // partition controller, so their knobs cannot move its results.
    const ExperimentJob mem = baseJob();
    ExperimentJob j = mem;
    j.config.sac.theta += 0.05;
    EXPECT_EQ(canonicalJobKey(j), canonicalJobKey(mem));
    j = mem;
    j.config.sac.profileWindow *= 2;
    j.config.sac.reprofileInterval += 1;
    j.config.dynamicLlc.epoch *= 2;
    EXPECT_EQ(contentHash(j), contentHash(mem));

    // A SAC job reads every sac.* knob.
    ExperimentJob sac = baseJob();
    sac.org = OrgKind::Sac;
    j = sac;
    j.config.sac.theta += 0.05;
    EXPECT_NE(canonicalJobKey(j), canonicalJobKey(sac));
    j = sac;
    j.config.sac.crdWays += 1;
    EXPECT_NE(contentHash(j), contentHash(sac));
    j = sac;
    j.config.dynamicLlc.epoch *= 2;
    EXPECT_EQ(contentHash(j), contentHash(sac));

    // A Dynamic-LLC job reads the dyn.* knobs and no SAC one.
    ExperimentJob dyn = baseJob();
    dyn.org = OrgKind::DynamicLlc;
    j = dyn;
    j.config.dynamicLlc.epoch *= 2;
    EXPECT_NE(contentHash(j), contentHash(dyn));
    j = dyn;
    j.config.sac.theta += 0.05;
    EXPECT_EQ(contentHash(j), contentHash(dyn));
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
}

} // namespace
} // namespace sac
