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
}

} // namespace
} // namespace sac
