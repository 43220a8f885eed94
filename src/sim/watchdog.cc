#include "sim/watchdog.hh"

#include "common/log.hh"

namespace sac {

namespace {

/** The budget token's reason: poll() tells a spent wall budget from a
 *  cancelled parent by it. */
const char *const wallBudgetReason = "wall-clock budget spent";

} // namespace

Cycle
LivelockWatchdog::nextDue(Cycle) const
{
    // The loop check is `now - kernelStart > cap`, i.e. it first
    // fires at kernelStart + cap + 1. This deadline bounds the wake
    // even when every component reports cycleNever, so a wedged
    // system aborts at the exact same cycle it would have without
    // fast-forward.
    return kernelStart_ + cap() + 1;
}

void
LivelockWatchdog::poll(const TickInfo &tick)
{
    if (tick.now - kernelStart_ <= cap())
        return;
    // Instead of dying silently at the cap, capture what every queue
    // and MSHR file was holding so the post-mortem starts with data.
    throw LivelockError(log_detail::concat(
        "kernel ", tick.kernel, " exceeded ", cap(),
        " cycles: likely livelock\n", digest_()));
}

Cycle
CycleDeadlineWatchdog::nextDue(Cycle) const
{
    return limits_.maxCycles > 0 ? limits_.maxCycles + 1 : cycleNever;
}

void
CycleDeadlineWatchdog::poll(const TickInfo &tick)
{
    if (limits_.maxCycles == 0 || tick.now <= limits_.maxCycles)
        return;
    throw SimTimeoutError(log_detail::concat(
        "run exceeded the ", limits_.maxCycles,
        "-cycle deadline in kernel ", tick.kernel, "\n", digest_()));
}

void
CancelWatchdog::start(const CancelToken *token)
{
    checks_ = 0;
    budget_.reset();
    observed_ = token;
    if (limits_.maxWallMs <= 0.0)
        return;
    budget_ = std::make_unique<CancelToken>();
    budget_->linkParent(token);
    budget_->setDeadlineAfterMs(limits_.maxWallMs, wallBudgetReason);
    observed_ = budget_.get();
}

void
CancelWatchdog::poll(const TickInfo &tick)
{
    if (!observed_)
        return;
    // Dense path: one iteration advanced one cycle, so checking every
    // checkInterval iterations bounds the staleness and costs nothing
    // measurable. A fast-forwarded iteration may have skipped millions
    // of cycles, so it is always checked — otherwise a mostly-idle run
    // could blow through a deadline between strided checks.
    if (!tick.fastForwarded && ++checks_ % checkInterval != 0)
        return;
    if (!observed_->cancelled())
        return;
    const std::string why = observed_->reason();
    if (budget_ && why == wallBudgetReason) {
        throw SimTimeoutError(log_detail::concat(
            "run exceeded the wall-clock deadline (", limits_.maxWallMs,
            " ms) in kernel ", tick.kernel, "\n", digest_()));
    }
    throw SimTimeoutError(log_detail::concat(
        "run cancelled in kernel ", tick.kernel, ": ", why));
}

} // namespace sac
