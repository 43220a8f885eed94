/**
 * @file
 * Scenario parsing, validation and the stream trace mux.
 *
 * The reader shares the protocol's convention — every numeric field
 * range-checked with the field name in the ValidationError — and the
 * mux guarantees one identity: a one-stream scenario produces the
 * exact access sequence of a bare SharingTraceGen, which is what
 * keeps single-stream scenario runs byte-identical to plain runs.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/log.hh"
#include "gpu/cta_scheduler.hh"
#include "workload/scenario.hh"
#include "workload/suite.hh"
#include "workload/tracegen.hh"

namespace sac {
namespace {

std::string
doc(const std::string &streams)
{
    return std::string("{\"schema\":\"sac.scenario.v1\",\"streams\":") +
           streams + "}";
}

TEST(ScenarioParse, ReadsStreamsWithDefaults)
{
    const Scenario scn = scenarioFromJson(
        doc("[{\"benchmark\":\"CFD\"},"
            "{\"benchmark\":\"SRAD\",\"launchCycle\":4096,"
            "\"clusterShare\":2.0,\"kernels\":3,\"apw\":64,"
            "\"inputScale\":0.5}]"));
    ASSERT_EQ(scn.streams.size(), 2u);
    EXPECT_TRUE(scn.multiTenant());
    EXPECT_EQ(scn.name(), "CFD+SRAD");

    EXPECT_EQ(scn.streams[0].profile.name, "CFD");
    EXPECT_EQ(scn.streams[0].launchCycle, 0u);
    EXPECT_DOUBLE_EQ(scn.streams[0].clusterShare, 1.0);
    EXPECT_EQ(scn.streams[0].kernelCount(),
              findBenchmark("CFD").numKernels);

    EXPECT_EQ(scn.streams[1].launchCycle, 4096u);
    EXPECT_DOUBLE_EQ(scn.streams[1].clusterShare, 2.0);
    EXPECT_EQ(scn.streams[1].kernelCount(), 3);
    EXPECT_EQ(scn.streams[1].profile.phases[0].accessesPerWarp, 64u);
}

TEST(ScenarioParse, SingleStreamIsNotMultiTenant)
{
    const Scenario scn =
        scenarioFromJson(doc("[{\"benchmark\":\"RN\"}]"));
    EXPECT_FALSE(scn.multiTenant());
    EXPECT_EQ(scn.name(), "RN");
}

TEST(ScenarioParse, RejectsBadDocuments)
{
    // Wrong or missing schema.
    EXPECT_THROW(scenarioFromJson("{\"streams\":[]}"), ValidationError);
    EXPECT_THROW(scenarioFromJson(
                     "{\"schema\":\"sac.scenario.v2\",\"streams\":[]}"),
                 ValidationError);
    // Missing / empty / oversized streams.
    EXPECT_THROW(scenarioFromJson("{\"schema\":\"sac.scenario.v1\"}"),
                 ValidationError);
    EXPECT_THROW(scenarioFromJson(doc("[]")), ValidationError);
    std::string many = "[";
    for (std::size_t i = 0; i <= maxScenarioStreams; ++i) {
        if (i)
            many += ",";
        many += "{\"benchmark\":\"RN\"}";
    }
    many += "]";
    EXPECT_THROW(scenarioFromJson(doc(many)), ValidationError);
}

TEST(ScenarioParse, RejectsOutOfRangeFieldsWithFieldName)
{
    try {
        scenarioFromJson(doc("[{\"benchmark\":\"RN\",\"apw\":0}]"));
        FAIL() << "apw 0 accepted";
    } catch (const ValidationError &e) {
        EXPECT_NE(std::string(e.what()).find("apw"), std::string::npos);
    }
    EXPECT_THROW(
        scenarioFromJson(
            doc("[{\"benchmark\":\"RN\",\"clusterShare\":0.0}]")),
        ValidationError);
    EXPECT_THROW(
        scenarioFromJson(doc("[{\"benchmark\":\"RN\",\"kernels\":0}]")),
        ValidationError);
    EXPECT_THROW(
        scenarioFromJson(
            doc("[{\"benchmark\":\"RN\",\"inputScale\":1e999}]")),
        ValidationError);
}

TEST(ScenarioParse, UnknownBenchmarkSuggestsNearestName)
{
    try {
        scenarioFromJson(doc("[{\"benchmark\":\"CDF\"}]"));
        FAIL() << "unknown benchmark accepted";
    } catch (const ValidationError &e) {
        EXPECT_NE(std::string(e.what()).find("CFD"), std::string::npos);
    }
}

TEST(ScenarioPartition, SharesAndFloors)
{
    // Equal shares split evenly.
    auto r = CtaScheduler::partitionClusters(8, {1.0, 1.0});
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r[0].first, 0u);
    EXPECT_EQ(r[0].count, 4u);
    EXPECT_EQ(r[1].first, 4u);
    EXPECT_EQ(r[1].count, 4u);

    // Weighted split; ranges stay contiguous and exhaustive.
    r = CtaScheduler::partitionClusters(8, {3.0, 1.0});
    EXPECT_EQ(r[0].count, 6u);
    EXPECT_EQ(r[1].count, 2u);

    // A tiny share still gets one cluster.
    r = CtaScheduler::partitionClusters(8, {1000.0, 1e-3});
    EXPECT_EQ(r[0].count, 7u);
    EXPECT_EQ(r[1].count, 1u);
    EXPECT_EQ(r[1].first, 7u);

    // More streams than clusters cannot be placed.
    EXPECT_THROW(CtaScheduler::partitionClusters(2, {1.0, 1.0, 1.0}),
                 ValidationError);
}

TEST(StreamTraceMux, OneStreamIsTheIdentity)
{
    GpuConfig cfg = GpuConfig::scaled(8);
    cfg.warpsPerCluster = 4;
    const WorkloadProfile profile = findBenchmark("CFD");

    SharingTraceGen bare(profile, cfg, 7);
    StreamTraceMux mux(Scenario::fromProfile(profile), cfg, 7);
    ASSERT_EQ(mux.numStreams(), 1);

    bare.beginKernel(0);
    mux.beginStreamKernel(0, 0);
    for (int i = 0; i < 2000; ++i) {
        const ChipId chip = i % 2;
        const ClusterId cluster = (i / 2) % cfg.clustersPerChip;
        const int warp = i % cfg.warpsPerCluster;
        const MemAccess a = bare.next(chip, cluster, warp);
        const MemAccess b = mux.next(chip, cluster, warp);
        ASSERT_EQ(a.lineAddr, b.lineAddr) << "access " << i;
        ASSERT_EQ(a.sector, b.sector) << "access " << i;
        ASSERT_EQ(a.type, b.type) << "access " << i;
        ASSERT_EQ(a.gap, b.gap) << "access " << i;
    }
}

TEST(StreamTraceMux, StreamsAreDisjointAndPartitioned)
{
    GpuConfig cfg = GpuConfig::scaled(8);
    const Scenario scn = scenarioFromJson(
        doc("[{\"benchmark\":\"CFD\"},{\"benchmark\":\"SRAD\"}]"));
    StreamTraceMux mux(scn, cfg, 1);
    ASSERT_EQ(mux.numStreams(), 2);

    // The cluster partition covers every cluster exactly once.
    const auto &ranges = mux.clusterRanges();
    ASSERT_EQ(ranges.size(), 2u);
    EXPECT_EQ(ranges[0].first, 0u);
    EXPECT_EQ(ranges[0].count + ranges[1].count,
              static_cast<std::uint64_t>(cfg.clustersPerChip));

    // Stream 1's addresses live in a disjoint window (offset 1 << 38).
    mux.beginStreamKernel(0, 0);
    mux.beginStreamKernel(1, 0);
    const ClusterId c1 = static_cast<ClusterId>(ranges[1].first);
    for (int i = 0; i < 500; ++i) {
        const MemAccess a = mux.next(0, 0, i % cfg.warpsPerCluster);
        const MemAccess b = mux.next(0, c1, i % cfg.warpsPerCluster);
        EXPECT_LT(a.lineAddr, Addr(1) << 38);
        EXPECT_GE(b.lineAddr, Addr(1) << 38);
        EXPECT_EQ(mux.streamOfCluster(0), 0);
        EXPECT_EQ(mux.streamOfCluster(c1), 1);
    }
}

} // namespace
} // namespace sac
