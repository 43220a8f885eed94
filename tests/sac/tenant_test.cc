/**
 * @file
 * Unit tests for SAC control: decideWindow and TenantSacService,
 * driven through a fake host.
 *
 * The Controller suite pins the paper's per-kernel controller — the
 * decision step and the service with one tenant that owns the whole
 * machine. The TenantSac suite pins the co-resident cases:
 * bandwidth-major arbitration, the memory-side tie-break, the charged
 * re-arbitration at a partial kernel end, and per-tenant re-profiling.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "sac/tenant.hh"

namespace sac {
namespace {

constexpr Cycle window = 100;

GpuConfig
cfg(Cycle reprofile = 0)
{
    auto c = GpuConfig::scaled(4);
    c.sac.profileWindow = window;
    c.sac.reprofileInterval = reprofile;
    return c;
}

/** Records everything the service asks of the system. */
class FakeHost final : public TenantHost
{
  public:
    explicit FakeHost(int streams)
        : req(static_cast<std::size_t>(streams), 0),
          hits(static_cast<std::size_t>(streams), 0)
    {
    }

    std::pair<std::uint64_t, std::uint64_t>
    streamLlcTotals(int stream) const override
    {
        return {req[static_cast<std::size_t>(stream)],
                hits[static_cast<std::size_t>(stream)]};
    }

    void
    tenantWindowClosed(int stream, const SacDecision &d,
                       double hit_rate) override
    {
        closedStreams.push_back(stream);
        decisions.push_back(d);
        hitRates.push_back(hit_rate);
    }

    void reconfigured(LlcMode to) override { reconfigs.push_back(to); }

    void
    modeChangeFlush(const char *reason) override
    {
        flushes.emplace_back(reason);
    }

    /** Adds @p n LLC requests of @p stream at a 90% hit rate. */
    void
    traffic(int stream, std::uint64_t n)
    {
        req[static_cast<std::size_t>(stream)] += n;
        hits[static_cast<std::size_t>(stream)] += n * 9 / 10;
    }

    std::vector<std::uint64_t> req;
    std::vector<std::uint64_t> hits;
    std::vector<int> closedStreams;
    std::vector<SacDecision> decisions;
    std::vector<double> hitRates;
    std::vector<LlcMode> reconfigs;
    std::vector<std::string> flushes;
};

/**
 * Remote-heavy, replication-friendly traffic: many truly shared lines
 * reused by every chip. SM-side wins at a 90% memory-side hit rate.
 */
template <typename Miss>
void
smFriendlyMisses(Miss miss)
{
    for (int round = 0; round < 6; ++round) {
        for (int i = 0; i < 400; ++i) {
            for (ChipId src = 0; src < 4; ++src)
                miss(src, i % 4, i % 4, 0x80ull * i);
        }
    }
}

/**
 * 90% local traffic with a high memory-side hit rate: nothing to gain
 * from SM-side caching.
 */
template <typename Miss>
void
localHeavyMisses(Miss miss)
{
    for (int i = 0; i < 4000; ++i) {
        const ChipId src = i % 4;
        const ChipId home = (i % 10 == 0) ? (src + 1) % 4 : src;
        miss(src, home, i % 4, 0x100000ull * src + 0x80ull * i);
    }
}

void
poll(TenantSacService &svc, Cycle now)
{
    svc.tick(now);
}

/** Fixture: one service over a SAC organization and a fake host. */
class SacControl
{
  public:
    SacControl(int streams, Cycle reprofile = 0)
        : config(cfg(reprofile)), host(streams), svc(config, org, host)
    {
        svc.reset(streams);
    }

    /** Feeds @p stream one window's traffic of the given shape. */
    void
    profile(int stream, bool sm_friendly, std::uint64_t requests)
    {
        const auto miss = [&](ChipId src, ChipId home, int slice,
                              Addr line) {
            svc.onL1Miss(stream, src, home, slice, line, 0);
        };
        if (sm_friendly)
            smFriendlyMisses(miss);
        else
            localHeavyMisses(miss);
        host.traffic(stream, requests);
    }

    /**
     * Runs @p stream's window from launch at @p start to close:
     * midpoint, then traffic, then the window deadline.
     */
    void
    runWindow(int stream, Cycle start, bool sm_friendly,
              std::uint64_t requests = 1000)
    {
        svc.beginStreamKernel(stream, 0, start);
        poll(svc, start + window / 2);
        profile(stream, sm_friendly, requests);
        poll(svc, start + window);
    }

    GpuConfig config;
    Organization org{OrgKind::Sac};
    FakeHost host;
    TenantSacService svc;
};

// --- the paper's controller: decideWindow and one tenant ---------------

TEST(Controller, KernelStartOpensWindowMemorySide)
{
    SacControl c(1);
    c.org.setMode(LlcMode::SmSide);
    c.svc.beginStreamKernel(0, 0, 50);
    // Profiling needs memory-side: the launch reverts with a flush.
    EXPECT_EQ(c.org.mode(), LlcMode::MemorySide);
    EXPECT_EQ(c.host.flushes, (std::vector<std::string>{"re-profile"}));
    EXPECT_TRUE(c.host.reconfigs.empty());
    EXPECT_TRUE(c.svc.windowOpen(0));
    poll(c.svc, 50 + window / 2);
    EXPECT_TRUE(c.svc.windowOpen(0));
    poll(c.svc, 50 + window);
    EXPECT_FALSE(c.svc.windowOpen(0));
}

TEST(Controller, SmFriendlyProfileSwitchesMode)
{
    SacControl c(1);
    c.runWindow(0, 0, /*sm_friendly=*/true);
    ASSERT_EQ(c.host.decisions.size(), 1u);
    EXPECT_EQ(c.host.decisions[0].chosen, LlcMode::SmSide);
    EXPECT_DOUBLE_EQ(c.host.hitRates[0], 0.9);
    EXPECT_EQ(c.org.mode(), LlcMode::SmSide);
    // One reconfiguration, charged as one flush.
    EXPECT_EQ(c.host.reconfigs, (std::vector<LlcMode>{LlcMode::SmSide}));
    EXPECT_EQ(c.host.flushes, (std::vector<std::string>{"reconfigure"}));
}

TEST(Controller, SmFriendlyProfileChoosesSmSide)
{
    const GpuConfig config = cfg();
    Profiler prof(config);
    smFriendlyMisses([&](ChipId src, ChipId home, int slice, Addr line) {
        prof.onL1Miss(src, home, slice, line, 0);
    });
    const SacDecision d =
        decideWindow(eab::ArchParams::fromConfig(config), config.sac, prof,
                     /*measured_mem_hit_rate=*/0.9, 0);
    EXPECT_EQ(d.chosen, LlcMode::SmSide);
    EXPECT_GT(d.eab.smSide.total(), d.eab.memSide.total());
}

TEST(Controller, LocalHeavyProfileStaysMemorySide)
{
    const GpuConfig config = cfg();
    Profiler prof(config);
    localHeavyMisses([&](ChipId src, ChipId home, int slice, Addr line) {
        prof.onL1Miss(src, home, slice, line, 0);
    });
    const SacDecision d = decideWindow(eab::ArchParams::fromConfig(config),
                                       config.sac, prof, 0.9, 0);
    EXPECT_EQ(d.chosen, LlcMode::MemorySide);
}

TEST(Controller, DecisionRecordsInputsAndEab)
{
    const GpuConfig config = cfg();
    Profiler prof(config);
    prof.onL1Miss(0, 0, 0, 0x1000, 0);
    const SacDecision d = decideWindow(eab::ArchParams::fromConfig(config),
                                       config.sac, prof, 0.7, 3);
    EXPECT_EQ(d.kernel, 3);
    EXPECT_DOUBLE_EQ(d.inputs.hitMem, 0.7);
    EXPECT_GT(d.eab.memSide.total(), 0.0);
}

TEST(Controller, EndKernelRevertsToMemorySide)
{
    SacControl c(1);
    c.runWindow(0, 0, /*sm_friendly=*/true);
    ASSERT_EQ(c.org.mode(), LlcMode::SmSide);
    const auto reconfigs = c.host.reconfigs.size();
    const auto flushes = c.host.flushes.size();

    // The stream owns the whole machine: revert without a charge.
    c.svc.endStreamKernel(0, /*whole_machine=*/true);
    EXPECT_EQ(c.org.mode(), LlcMode::MemorySide);
    EXPECT_EQ(c.host.reconfigs.size(), reconfigs);
    EXPECT_EQ(c.host.flushes.size(), flushes);

    // The next kernel profiles memory-side without another flush.
    c.svc.beginStreamKernel(0, 1, 1000);
    EXPECT_EQ(c.host.flushes.size(), flushes);
    // A kernel that ends with its window open records no decision.
    c.svc.endStreamKernel(0, /*whole_machine=*/true);
    EXPECT_FALSE(c.svc.windowOpen(0));
    poll(c.svc, 1000 + window);
    EXPECT_EQ(c.host.decisions.size(), 1u);
}

TEST(Controller, ReprofilesAfterTheInterval)
{
    const Cycle interval = 500;
    SacControl c(1, interval);
    c.runWindow(0, 0, /*sm_friendly=*/true);
    ASSERT_EQ(c.org.mode(), LlcMode::SmSide);

    poll(c.svc, window + interval - 1);
    EXPECT_FALSE(c.svc.windowOpen(0));
    poll(c.svc, window + interval);
    // The window re-opens memory-side, reverting with a flush.
    EXPECT_TRUE(c.svc.windowOpen(0));
    EXPECT_EQ(c.org.mode(), LlcMode::MemorySide);
    EXPECT_EQ(c.host.flushes.back(), "re-profile");

    // A finished kernel never re-profiles.
    c.svc.endStreamKernel(0, /*whole_machine=*/true);
    poll(c.svc, 10 * interval);
    EXPECT_FALSE(c.svc.windowOpen(0));
}

// --- co-resident tenants -----------------------------------------------

TEST(TenantSac, BandwidthMajorVerdictWins)
{
    SacControl c(2);
    const Cycle late = 20;
    c.svc.beginStreamKernel(1, 0, late);
    // Tenant 0 closes first: its SM-side verdict is the only one.
    c.runWindow(0, 0, /*sm_friendly=*/true, 1000);
    EXPECT_EQ(c.org.mode(), LlcMode::SmSide);

    // Tenant 1 saw more LLC requests: its memory-side verdict wins.
    c.profile(1, /*sm_friendly=*/false, 2000);
    poll(c.svc, late + window);
    ASSERT_EQ(c.host.closedStreams, (std::vector<int>{0, 1}));
    EXPECT_EQ(c.org.mode(), LlcMode::MemorySide);
    const std::vector<LlcMode> want{LlcMode::SmSide, LlcMode::MemorySide};
    EXPECT_EQ(c.host.reconfigs, want);
}

TEST(TenantSac, ExactTieFallsBackToMemorySide)
{
    SacControl c(2);
    c.svc.beginStreamKernel(0, 0, 0);
    c.svc.beginStreamKernel(1, 0, 0);
    poll(c.svc, window / 2);
    c.profile(0, /*sm_friendly=*/true, 1000);
    c.profile(1, /*sm_friendly=*/false, 1000);
    poll(c.svc, window);
    ASSERT_EQ(c.host.decisions.size(), 2u);
    EXPECT_EQ(c.host.decisions[0].chosen, LlcMode::SmSide);
    EXPECT_EQ(c.host.decisions[1].chosen, LlcMode::MemorySide);
    // Equal windowed requests, disagreeing verdicts: memory-side.
    EXPECT_EQ(c.org.mode(), LlcMode::MemorySide);
}

TEST(TenantSac, SmSideTenantKernelEndChargesReconfiguration)
{
    SacControl c(2);
    c.runWindow(0, 0, /*sm_friendly=*/true);
    ASSERT_EQ(c.org.mode(), LlcMode::SmSide);
    const auto flushes = c.host.flushes.size();

    // A partial kernel end re-arbitrates: no verdict is left, so the
    // machine returns to memory-side as a charged reconfiguration.
    c.svc.endStreamKernel(0, /*whole_machine=*/false);
    EXPECT_EQ(c.org.mode(), LlcMode::MemorySide);
    EXPECT_EQ(c.host.reconfigs.back(), LlcMode::MemorySide);
    EXPECT_EQ(c.host.flushes.size(), flushes + 1);
    EXPECT_EQ(c.host.flushes.back(), "reconfigure");
}

TEST(TenantSac, ReprofilesPerTenant)
{
    const Cycle interval = 500;
    SacControl c(2, interval);
    c.runWindow(0, 0, /*sm_friendly=*/false);
    c.runWindow(1, 200, /*sm_friendly=*/false);

    // Each tenant re-opens on its own close cycle plus the interval.
    poll(c.svc, window + interval);
    EXPECT_TRUE(c.svc.windowOpen(0));
    EXPECT_FALSE(c.svc.windowOpen(1));
    poll(c.svc, 200 + window + interval);
    EXPECT_TRUE(c.svc.windowOpen(1));

    // A tenant whose stream finished stays closed.
    c.svc.endStreamKernel(0, /*whole_machine=*/false);
    poll(c.svc, 10 * interval);
    EXPECT_FALSE(c.svc.windowOpen(0));
}

} // namespace
} // namespace sac
