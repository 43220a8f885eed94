/**
 * @file
 * Tests for the RunService framework: registry phase ordering, the
 * single-source wake computation, the schedule a System actually
 * registers, and the wall-clock budget across at-rest jumps.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/engine.hh"
#include "sim/plan.hh"
#include "sim/run_service.hh"
#include "sim/system.hh"
#include "sim/watchdog.hh"
#include "workload/scenario.hh"
#include "workload/suite.hh"
#include "workload/tracegen.hh"

namespace sac {
namespace {

class FakeService final : public RunService
{
  public:
    FakeService(const char *name, Cycle due,
                std::vector<std::string> *log = nullptr)
        : name_(name), due_(due), log_(log)
    {
    }

    const char *name() const override { return name_; }
    Cycle nextDue(Cycle) const override { return due_; }

    void
    poll(const TickInfo &) override
    {
        if (log_)
            log_->push_back(name_);
    }

  private:
    const char *name_;
    Cycle due_;
    std::vector<std::string> *log_;
};

TEST(RunServiceRegistry, OrdersByPhaseNotByRegistrationOrder)
{
    // Register out of order — the way a System does when
    // enableTelemetry() adds the sampler after the watchdogs — and
    // expect the poll order to follow RunPhase anyway.
    FakeService wd("watchdog", cycleNever);
    FakeService fault("fault", cycleNever);
    FakeService window("window", cycleNever);
    FakeService sampler("sampler", cycleNever);

    RunServiceRegistry reg;
    reg.add(RunPhase::Watchdog, wd);
    reg.add(RunPhase::SacWindow, window);
    reg.add(RunPhase::FaultHook, fault);
    reg.add(RunPhase::Telemetry, sampler); // late, like enableTelemetry

    const auto names = reg.names();
    const std::vector<std::string> expected{"fault", "sampler", "window",
                                            "watchdog"};
    ASSERT_EQ(names.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(names[i], expected[i]) << "slot " << i;
}

TEST(RunServiceRegistry, SamePhaseKeepsRegistrationOrder)
{
    // The three watchdogs share a phase; livelock must stay first.
    std::vector<std::string> log;
    FakeService a("livelock", cycleNever, &log);
    FakeService b("cycle", cycleNever, &log);
    FakeService c("wall", cycleNever, &log);

    RunServiceRegistry reg;
    reg.add(RunPhase::Watchdog, a);
    reg.add(RunPhase::Watchdog, b);
    reg.add(RunPhase::Watchdog, c);

    TickInfo tick;
    reg.poll(tick);
    EXPECT_EQ(log, (std::vector<std::string>{"livelock", "cycle", "wall"}));
}

TEST(RunServiceRegistry, CheckWakeIsThePreTickCycleOfAThreshold)
{
    // A post-tick `clock >= X` check fires after the tick at X - 1.
    EXPECT_EQ(checkWake(0), 0u);
    EXPECT_EQ(checkWake(1), 0u);
    EXPECT_EQ(checkWake(2048), 2047u);
}

TEST(RunServiceRegistry, NextWakeIsTheEarliestConvertedDeadline)
{
    FakeService early("early", 100);
    FakeService late("late", 5000);
    FakeService never("never", cycleNever);

    RunServiceRegistry reg;
    reg.add(RunPhase::Telemetry, late);
    reg.add(RunPhase::Occupancy, early);
    reg.add(RunPhase::Watchdog, never);

    // min over checkWake(due): checkWake(100) = 99. A cycleNever
    // service contributes nothing (not cycleNever - 1).
    EXPECT_EQ(reg.nextWake(0), 99u);
}

TEST(RunServiceRegistry, EmptyRegistryNeverWakes)
{
    const RunServiceRegistry reg;
    EXPECT_EQ(reg.nextWake(0), cycleNever);
    EXPECT_EQ(reg.size(), 0u);
}

// --- the schedule a real System registers ------------------------------

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
tinyProfile()
{
    WorkloadProfile p = findBenchmark("CFD");
    p.numKernels = 1;
    p.phases[0].accessesPerWarp = 48;
    return p;
}

TEST(SystemSchedule, SacSystemRegistersWindowAndWatchdogs)
{
    const GpuConfig cfg = tinyConfig();
    const WorkloadProfile p = tinyProfile().scaledData(dataScale(cfg));
    SharingTraceGen gen(p, cfg, 1);
    System system(cfg, OrgKind::Sac, gen);

    const auto names = system.runServices().names();
    // The wall-clock budget rides the cancel watchdog's token.
    const std::vector<std::string> expected{
        "fault-hook",        "sac-window",     "occupancy-sampler",
        "livelock-watchdog", "cycle-deadline", "cancel"};
    ASSERT_EQ(names.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(names[i], expected[i]) << "slot " << i;
}

TEST(SystemSchedule, TelemetryJoinsInPhaseOrderNotAtTheEnd)
{
    const GpuConfig cfg = tinyConfig();
    const WorkloadProfile p = tinyProfile().scaledData(dataScale(cfg));
    SharingTraceGen gen(p, cfg, 1);
    System system(cfg, OrgKind::Sac, gen);

    telemetry::Options opts;
    opts.epoch = 256;
    system.enableTelemetry(opts);

    const auto names = system.runServices().names();
    ASSERT_GE(names.size(), 2u);
    // Registered last, polled second: after the fault hook, before
    // the window — the sampler must not see a window close's flush
    // traffic in the wrong epoch.
    EXPECT_STREQ(names[0], "fault-hook");
    EXPECT_STREQ(names[1], "telemetry-sampler");
}

TEST(SystemSchedule, DynamicSystemRegistersTheEpochService)
{
    const GpuConfig cfg = tinyConfig();
    const WorkloadProfile p = tinyProfile().scaledData(dataScale(cfg));
    SharingTraceGen gen(p, cfg, 1);
    System system(cfg, OrgKind::DynamicLlc, gen);

    const auto names = system.runServices().names();
    ASSERT_EQ(names.size(), 6u);
    EXPECT_STREQ(names[1], "dynamic-epoch");
    // No controller, no window service.
    for (const char *n : names)
        EXPECT_STRNE(n, "sac-window");
}

// --- wall-clock budget across at-rest jumps ----------------------------

TEST(WallClockWatchdog, DeadlineFiresUnderFastForwardRegression)
{
    // Regression: the wall-clock check used to sample steady_clock
    // only every few thousand loop iterations. A run that spends most
    // of its cycles in an idle launch gap completes in far fewer
    // iterations (each at-rest jump can skip millions of cycles), so
    // the deadline could never fire. RunLimits::maxWallMs now rides
    // the cancel watchdog's per-run token, which checks every jump
    // iteration and strides only over per-cycle ones.
    const GpuConfig cfg = tinyConfig();
    WorkloadProfile p = tinyProfile();
    p.phases[0].accessesPerWarp = 2;
    Scenario scn;
    scn.streams.push_back(StreamSpec{p, 200000, 1.0, 0});
    scn = scn.scaledData(dataScale(cfg));

    // First establish the regression precondition: this run takes
    // fewer loop iterations than the cancel watchdog's stride. One
    // iteration ticks one cycle; every remaining cycle is covered by
    // a jump, so iterations == cycles - skippedCycles.
    {
        StreamTraceMux mux(scn, cfg, 1);
        System probe(cfg, OrgKind::MemorySide, mux);
        const RunResult res = probe.run(scn);
        const auto ff = probe.fastForwardStats();
        ASSERT_GT(ff.skips, 0u);
        ASSERT_LT(res.cycles - ff.skippedCycles,
                  CancelWatchdog::checkInterval)
            << "workload no longer idle-heavy enough to regress";
    }

    // With an already-expired wall budget the watchdog must still
    // fire, because jump iterations are checked unstrided.
    StreamTraceMux mux(scn, cfg, 1);
    System system(cfg, OrgKind::MemorySide, mux);
    RunLimits limits;
    limits.maxWallMs = 1e-6;
    system.setRunLimits(limits);
    try {
        system.run(scn);
        FAIL() << "the spent wall budget did not abort the run";
    } catch (const SimTimeoutError &e) {
        // The diagnostic names the budget and carries the digest.
        const std::string what = e.what();
        EXPECT_NE(what.find("wall-clock deadline (1e-06 ms)"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("occupancy digest"), std::string::npos) << what;
    }
}

TEST(WallClockWatchdog, NoDeadlineMeansNoAbort)
{
    const GpuConfig cfg = tinyConfig();
    const WorkloadProfile p = tinyProfile().scaledData(dataScale(cfg));
    SharingTraceGen gen(p, cfg, 1);
    System system(cfg, OrgKind::MemorySide, gen);
    system.setFastForward(true);
    EXPECT_NO_THROW(system.run(kernelsFor(p)));
}

} // namespace
} // namespace sac
