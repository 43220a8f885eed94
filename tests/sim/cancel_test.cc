/**
 * @file
 * Tests for cooperative cancellation: CancelToken semantics (latching,
 * deadline tightening, parent chaining), engine behaviour for plans
 * cancelled before and during execution, the in-kernel interruption
 * path through System's control step, the wall-clock budget across
 * at-rest jumps, and the determinism contract — records delivered
 * before a cancellation are byte-identical to the same prefix of an
 * uncancelled run, for any worker count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "sim/cancel.hh"
#include "sim/engine.hh"
#include "sim/plan.hh"
#include "sim/result_io.hh"
#include "workload/scenario.hh"
#include "workload/suite.hh"
#include "workload/tracegen.hh"

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
tinyProfile(const std::string &name, std::uint64_t apw = 64)
{
    WorkloadProfile p = findBenchmark(name);
    p.numKernels = 1;
    p.phases[0].accessesPerWarp = apw;
    return p;
}

/** Five quick jobs: the full organization sweep on a tiny RN. */
ExperimentPlan
quickPlan()
{
    ExperimentPlan plan;
    plan.addOrgSweep(tinyProfile("RN"), tinyConfig());
    return plan;
}

TEST(CancelToken, LatchesWithTheFirstReason)
{
    CancelToken token;
    EXPECT_FALSE(token.cancelled());
    EXPECT_EQ(token.reason(), "");

    token.cancel("first");
    token.cancel("second");
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.reason(), "first");
}

TEST(CancelToken, DeadlineExpiresAndTightensButNeverLoosens)
{
    CancelToken token;
    token.setDeadlineAfterMs(1e9, "loose");
    EXPECT_FALSE(token.cancelled());

    // A tighter deadline wins; an already-past one fires immediately.
    token.setDeadlineAfterMs(0.0, "tight");
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.reason(), "tight");

    // Once latched, a later looser deadline cannot un-cancel.
    CancelToken fired;
    fired.setDeadlineAfterMs(0.0, "expired");
    EXPECT_TRUE(fired.cancelled());
    fired.setDeadlineAfterMs(1e9, "later");
    EXPECT_TRUE(fired.cancelled());
    EXPECT_EQ(fired.reason(), "expired");
}

TEST(CancelToken, ObservesItsParentChain)
{
    CancelToken drain;
    CancelToken session;
    CancelToken plan;
    session.linkParent(&drain);
    plan.linkParent(&session);

    EXPECT_FALSE(plan.cancelled());
    drain.cancel("daemon shutting down");
    EXPECT_TRUE(session.cancelled());
    EXPECT_TRUE(plan.cancelled());
    // The reason propagates down the chain for diagnostics.
    EXPECT_EQ(plan.reason(), "daemon shutting down");
}

TEST(EngineCancellation, PreCancelledPlanDeliversWithoutSimulating)
{
    const ExperimentPlan plan = quickPlan();
    CancelToken token;
    token.cancel("operator stop");

    ExperimentEngine engine(2);
    engine.setCancelToken(&token);
    const std::uint64_t runs = ExperimentEngine::simulatedSystemRuns();
    std::size_t delivered = 0;
    engine.onProgress([&](const EngineProgress &p) {
        ++delivered;
        EXPECT_EQ(p.record.jobIndex, delivered - 1); // plan order
        EXPECT_EQ(p.total, plan.size());
    });

    const auto records = engine.run(plan);
    EXPECT_EQ(ExperimentEngine::simulatedSystemRuns(), runs);
    ASSERT_EQ(records.size(), plan.size());
    for (const auto &rec : records) {
        EXPECT_EQ(rec.result.status, RunStatus::TimedOut);
        EXPECT_NE(rec.result.diagnostic.find(
                      "cancelled before start: operator stop"),
                  std::string::npos)
            << rec.result.diagnostic;
    }
    // A cancelled sweep still completes: every job is delivered.
    EXPECT_EQ(delivered, plan.size());
}

TEST(EngineCancellation, DeadlineInterruptsARunningKernel)
{
    // One long job (no other jobs to absorb the budget), a deadline
    // far shorter than its runtime: the control step must observe
    // the token mid-run and stop the System from inside the kernel.
    ExperimentPlan plan;
    plan.add(tinyProfile("RN", 1u << 22), tinyConfig(), OrgKind::Sac);

    CancelToken token;
    token.setDeadlineAfterMs(50.0, "plan deadline (50 ms) exceeded");

    ExperimentEngine engine(1);
    engine.setCancelToken(&token);
    const auto records = engine.run(plan);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].result.status, RunStatus::TimedOut);
    EXPECT_NE(records[0].result.diagnostic.find("run cancelled in kernel"),
              std::string::npos)
        << records[0].result.diagnostic;
    EXPECT_NE(records[0].result.diagnostic.find(
                  "plan deadline (50 ms) exceeded"),
              std::string::npos)
        << records[0].result.diagnostic;
}

TEST(EngineCancellation, WallBudgetObservesTheAttachedToken)
{
    // RunLimits::maxWallMs arms a per-run token whose parent is the
    // attached one: with a budget far looser than the plan deadline,
    // the parent's cancellation still interrupts the kernel and its
    // reason, not the budget's, reaches the diagnostic.
    ExperimentPlan plan;
    plan.add(tinyProfile("RN", 1u << 22), tinyConfig(), OrgKind::Sac);
    RunLimits limits;
    limits.maxWallMs = 1e9;
    plan.setLimits(limits);

    CancelToken token;
    token.setDeadlineAfterMs(50.0, "plan deadline (50 ms) exceeded");

    ExperimentEngine engine(1);
    engine.setCancelToken(&token);
    const auto records = engine.run(plan);
    ASSERT_EQ(records.size(), 1u);
    const std::string &d = records[0].result.diagnostic;
    EXPECT_EQ(records[0].result.status, RunStatus::TimedOut);
    EXPECT_NE(d.find("run cancelled in kernel"), std::string::npos) << d;
    EXPECT_NE(d.find("plan deadline (50 ms) exceeded"), std::string::npos)
        << d;
    EXPECT_EQ(d.find("wall-clock"), std::string::npos) << d;
}

/** A delivery callback that cancels @p token as soon as record @p at
 *  is delivered. */
ProgressFn
cancelAt(CancelToken &token, std::size_t at)
{
    return [&token, at](const EngineProgress &event) {
        if (event.completed == at + 1)
            token.cancel("cancelled by test after record " +
                         std::to_string(at));
    };
}

TEST(EngineCancellation, EmittedPrefixIsByteIdenticalForAnyWorkerCount)
{
    const ExperimentPlan plan = quickPlan();

    // Reference: the uncancelled run, serialized per record with the
    // canonical writer (the same bytes the wire protocol ships).
    std::vector<std::string> reference;
    for (const auto &rec : ExperimentEngine(1).run(plan))
        reference.push_back(result_io::recordToJson(rec));

    for (const unsigned workers : {1u, 2u, 8u}) {
        CancelToken token;
        ExperimentEngine engine(workers);
        engine.setCancelToken(&token);
        engine.onProgress(cancelAt(token, 0));
        const auto records = engine.run(plan);
        ASSERT_EQ(records.size(), plan.size());

        // Record 0 completed before the cancellation, so it must be
        // byte-identical to the reference. Later jobs may have
        // finished healthy on other workers (allowed) or been cut
        // short (timed_out) — but every healthy record must carry
        // reference bytes, never a hybrid.
        EXPECT_EQ(result_io::recordToJson(records[0]), reference[0])
            << "workers=" << workers;
        std::size_t cancelled = 0;
        for (std::size_t i = 0; i < records.size(); ++i) {
            if (records[i].result.status == RunStatus::Ok) {
                EXPECT_EQ(result_io::recordToJson(records[i]),
                          reference[i])
                    << "workers=" << workers << " job=" << i;
            } else {
                EXPECT_EQ(records[i].result.status, RunStatus::TimedOut);
                ++cancelled;
            }
        }
        if (workers == 1) {
            // Serial execution makes the cut deterministic: exactly
            // the jobs after record 0 are cancelled.
            EXPECT_EQ(cancelled, plan.size() - 1) << "workers=1";
        }
    }
}

// --- wall-clock budget across at-rest jumps ----------------------------

TEST(WallClockWatchdog, DeadlineFiresUnderFastForwardRegression)
{
    // Regression: the wall-clock check used to sample steady_clock
    // only every few thousand loop iterations. A run that spends most
    // of its cycles in an idle launch gap completes in far fewer
    // iterations (each at-rest jump can skip millions of cycles), so
    // the deadline could never fire. RunLimits::maxWallMs now rides a
    // per-run token that the control step reads after every jump and
    // strides only over per-cycle steps.
    const GpuConfig cfg = tinyConfig();
    WorkloadProfile p = tinyProfile("CFD", 2);
    Scenario scn;
    scn.streams.push_back(StreamSpec{p, 200000, 1.0, 0});
    scn = scn.scaledData(dataScale(cfg));

    // First establish the regression precondition: this run takes
    // fewer loop iterations than the cancellation stride. One
    // iteration ticks one cycle; every remaining cycle is covered by
    // a jump, so iterations == cycles - skippedCycles.
    {
        StreamTraceMux mux(scn, cfg, 1);
        System probe(cfg, OrgKind::MemorySide, mux);
        const RunResult res = probe.run(scn);
        const auto ff = probe.fastForwardStats();
        ASSERT_GT(ff.skips, 0u);
        ASSERT_LT(res.cycles - ff.skippedCycles,
                  System::cancelCheckInterval)
            << "workload no longer idle-heavy enough to regress";
    }

    // With an already-expired wall budget the check must still fire,
    // because jump iterations are checked unstrided.
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
    const WorkloadProfile p =
        tinyProfile("CFD", 48).scaledData(dataScale(cfg));
    SharingTraceGen gen(p, cfg, 1);
    System system(cfg, OrgKind::MemorySide, gen);
    system.setFastForward(true);
    EXPECT_NO_THROW(system.run(kernelsFor(p)));
}

} // namespace
} // namespace sac
