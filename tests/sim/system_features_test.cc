/**
 * @file
 * Tests for System extensions: stats dumping, periodic re-profiling
 * (the paper's Section 3.2 exploration), and configuration sweeps the
 * sensitivity study relies on (parameterized across scales, coherence
 * kinds and sector counts).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <tuple>

#include "common/log.hh"
#include "sim/system.hh"
#include "workload/suite.hh"
#include "workload/tracegen.hh"

namespace sac {
namespace {

WorkloadProfile
tinyProfile(std::uint64_t apw = 64)
{
    WorkloadProfile p;
    p.name = "tiny";
    p.ctas = 64;
    p.footprintMB = 4;
    p.trueSharedMB = 1;
    p.falseSharedMB = 1;
    p.phases[0].trueFrac = 0.4;
    p.phases[0].falseFrac = 0.3;
    p.phases[0].writeFrac = 0.1;
    p.phases[0].trueHotMB = 0.25;
    p.phases[0].falseHotMB = 0.5;
    p.phases[0].privHotMB = 0.5;
    p.phases[0].accessesPerWarp = apw;
    p.numKernels = 1;
    return p;
}

RunResult
runWith(GpuConfig cfg, OrgKind kind, const WorkloadProfile &p,
        System **out = nullptr)
{
    static std::unique_ptr<SharingTraceGen> gen;
    static std::unique_ptr<System> sys;
    gen = std::make_unique<SharingTraceGen>(p, cfg, 1);
    sys = std::make_unique<System>(cfg, kind, *gen);
    std::vector<KernelDescriptor> ks;
    for (int k = 0; k < p.numKernels; ++k)
        ks.push_back({k, "k", p.phase(k).accessesPerWarp});
    auto r = sys->run(ks);
    if (out)
        *out = sys.get();
    return r;
}

TEST(SystemFeatures, StatsDumpContainsPerChipTree)
{
    GpuConfig cfg = GpuConfig::scaled(8);
    cfg.warpsPerCluster = 8;
    System *sys = nullptr;
    const RunResult r = runWith(cfg, OrgKind::MemorySide, tinyProfile(), &sys);
    std::ostringstream os;
    sys->dumpStats(os);
    const auto text = os.str();
    EXPECT_NE(text.find("system.cycles"), std::string::npos);
    EXPECT_NE(text.find("system.chip0.llcRequests"), std::string::npos);
    EXPECT_NE(text.find("system.chip3.dramBytes"), std::string::npos);
    EXPECT_NE(text.find("# LLC hits"), std::string::npos);

    // Three system lines, then seven per chip.
    const auto lines = static_cast<std::size_t>(
        std::count(text.begin(), text.end(), '\n'));
    EXPECT_EQ(lines, 3u + 7u * static_cast<std::size_t>(cfg.numChips));

    // One whole line, byte for byte: the path left-justified to 56
    // columns, one space, the exact integer value, the description.
    const std::string path = "system.cycles";
    const std::string first = path + std::string(56 - path.size(), ' ') +
                              " " + std::to_string(r.cycles) +
                              "  # simulated cycles\n";
    EXPECT_EQ(text.substr(0, first.size()), first);
}

TEST(SystemFeatures, PeriodicReprofilingProducesMultipleDecisions)
{
    GpuConfig cfg = GpuConfig::scaled(8);
    cfg.warpsPerCluster = 16;
    cfg.sac.profileWindow = 256;
    cfg.sac.profileMinRequests = 300;
    cfg.sac.reprofileInterval = 1500;
    const auto p = tinyProfile(512);
    const auto r = runWith(cfg, OrgKind::Sac, p);
    // At least one re-profile fired during the kernel.
    EXPECT_GT(r.sacDecisions.size(), 1u);
    for (const auto &d : r.sacDecisions)
        EXPECT_EQ(d.kernel, 0);
}

TEST(SystemFeatures, ReprofilingOffKeepsOneDecisionPerKernel)
{
    GpuConfig cfg = GpuConfig::scaled(8);
    cfg.warpsPerCluster = 16;
    cfg.sac.profileWindow = 256;
    cfg.sac.profileMinRequests = 300;
    const auto p = tinyProfile(512);
    const auto r = runWith(cfg, OrgKind::Sac, p);
    EXPECT_EQ(r.sacDecisions.size(), 1u);
}

/** (scale divisor, coherence, sectors) sweep: the system must complete
 *  with conserved access counts in every corner Fig. 14 visits. */
class ConfigSweep
    : public ::testing::TestWithParam<std::tuple<int, CoherenceKind,
                                                 unsigned>>
{
};

TEST_P(ConfigSweep, CompletesWithConservedAccesses)
{
    const auto [divisor, coherence, sectors] = GetParam();
    GpuConfig cfg = GpuConfig::scaled(divisor);
    cfg.warpsPerCluster = 8;
    cfg.coherence = coherence;
    cfg.sectorsPerLine = sectors;
    const auto p = tinyProfile();
    const std::uint64_t expected =
        static_cast<std::uint64_t>(cfg.totalClusters()) *
        static_cast<std::uint64_t>(cfg.warpsPerCluster) * 64;
    for (const auto kind :
         {OrgKind::MemorySide, OrgKind::SmSide, OrgKind::Sac}) {
        const auto r = runWith(cfg, kind, p);
        EXPECT_EQ(r.accesses, expected)
            << toString(kind) << " divisor=" << divisor;
        EXPECT_LE(r.llcHits, r.llcRequests);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Corners, ConfigSweep,
    ::testing::Values(
        std::make_tuple(4, CoherenceKind::Software, 1u),
        std::make_tuple(4, CoherenceKind::Hardware, 1u),
        std::make_tuple(4, CoherenceKind::Software, 4u),
        std::make_tuple(8, CoherenceKind::Software, 1u),
        std::make_tuple(8, CoherenceKind::Hardware, 4u),
        std::make_tuple(2, CoherenceKind::Software, 1u)));

TEST(SystemFeatures, TwoChipSystemWorks)
{
    GpuConfig cfg = GpuConfig::scaled(8);
    cfg.numChips = 2;
    cfg.warpsPerCluster = 8;
    const auto p = tinyProfile();
    for (const auto kind : {OrgKind::MemorySide, OrgKind::SmSide,
                            OrgKind::StaticLlc, OrgKind::Sac}) {
        const auto r = runWith(cfg, kind, p);
        EXPECT_GT(r.cycles, 0u) << toString(kind);
    }
}

TEST(SystemFeatures, PageSizeVariantsComplete)
{
    for (const unsigned page : {4096u, 65536u}) {
        GpuConfig cfg = GpuConfig::scaled(8);
        cfg.pageBytes = page;
        cfg.warpsPerCluster = 8;
        const auto r = runWith(cfg, OrgKind::Sac, tinyProfile());
        EXPECT_GT(r.accesses, 0u);
    }
}

} // namespace
} // namespace sac
