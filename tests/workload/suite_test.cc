/** @file Unit tests for the Table 4 benchmark suite. */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/log.hh"
#include "workload/suite.hh"

namespace sac {
namespace {

TEST(Suite, HasSixteenBenchmarks)
{
    EXPECT_EQ(benchmarkSuite().size(), 16u);
}

TEST(Suite, GroupsSplitEightEight)
{
    const auto &suite = benchmarkSuite();
    const auto sm_side = std::count_if(
        suite.begin(), suite.end(),
        [](const WorkloadProfile &p) { return p.smSidePreferred; });
    EXPECT_EQ(sm_side, 8);
    EXPECT_EQ(suite.size() - static_cast<std::size_t>(sm_side), 8u);
}

TEST(Suite, Table4ValuesSpotCheck)
{
    const auto &rn = findBenchmark("RN");
    EXPECT_EQ(rn.ctas, 512u);
    EXPECT_DOUBLE_EQ(rn.footprintMB, 21.0);
    EXPECT_DOUBLE_EQ(rn.trueSharedMB, 11.0);
    EXPECT_DOUBLE_EQ(rn.falseSharedMB, 4.0);
    EXPECT_TRUE(rn.smSidePreferred);

    const auto &nn = findBenchmark("NN");
    EXPECT_EQ(nn.ctas, 60000u);
    EXPECT_DOUBLE_EQ(nn.footprintMB, 1388.0);
    EXPECT_DOUBLE_EQ(nn.trueSharedMB, 154.0);
    EXPECT_DOUBLE_EQ(nn.falseSharedMB, 0.0);
    EXPECT_FALSE(nn.smSidePreferred);

    const auto &lud = findBenchmark("LUD");
    EXPECT_EQ(lud.ctas, 131068u);
    EXPECT_DOUBLE_EQ(lud.trueSharedMB, 38.0);
    EXPECT_DOUBLE_EQ(lud.falseSharedMB, 51.0);
}

TEST(Suite, Table4OrderMatchesPaper)
{
    const char *expected[] = {"RN", "AN", "SN", "CFD", "BFS", "3DC",
                              "BS", "BT", "SRAD", "GEMM", "LUD", "STEN",
                              "3MM", "BP", "DWT", "NN"};
    const auto &suite = benchmarkSuite();
    for (std::size_t i = 0; i < suite.size(); ++i)
        EXPECT_EQ(suite[i].name, expected[i]);
}

TEST(Suite, SharedNeverExceedsFootprint)
{
    for (const auto &p : benchmarkSuite()) {
        EXPECT_LE(p.trueSharedMB + p.falseSharedMB, p.footprintMB)
            << p.name;
        EXPECT_GE(p.privateMB(), 0.0);
    }
}

TEST(Suite, PhasesAreSane)
{
    for (const auto &p : benchmarkSuite()) {
        ASSERT_FALSE(p.phases.empty()) << p.name;
        for (const auto &ph : p.phases) {
            EXPECT_GE(ph.trueFrac, 0.0);
            EXPECT_GE(ph.falseFrac, 0.0);
            EXPECT_LE(ph.trueFrac + ph.falseFrac, 1.0) << p.name;
            EXPECT_GT(ph.accessesPerWarp, 0u) << p.name;
            EXPECT_GT(ph.computeGap, 0u) << p.name;
        }
        EXPECT_GE(p.numKernels, 1) << p.name;
    }
}

TEST(Suite, BfsAlternatesKernels)
{
    const auto &bfs = findBenchmark("BFS");
    ASSERT_EQ(bfs.phases.size(), 2u);
    EXPECT_GT(bfs.numKernels, 2);
    // K1 has the large flat frontier, K2 the small hot one.
    EXPECT_GT(bfs.phases[0].trueHotMB, bfs.phases[1].trueHotMB);
}

TEST(Suite, UnknownBenchmarkIsFatal)
{
    EXPECT_THROW(findBenchmark("NOPE"), FatalError);
}

} // namespace
} // namespace sac
