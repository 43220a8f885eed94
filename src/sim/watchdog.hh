/**
 * @file
 * Run watchdogs as RunServices: the livelock cap, the per-run cycle
 * deadline, and cooperative cancellation together with the per-run
 * wall-clock budget, plus the RunLimits knobs and the exceptions they
 * throw.
 *
 * The cycle-denominated watchdogs participate in the registry's wake
 * computation, so an aborted run dies at the exact same simulated
 * cycle with fast-forward on or off. The wall-clock budget is
 * host-dependent by nature (fleet hygiene, not reproducibility): it
 * rides a per-run CancelToken deadline that the cancel watchdog
 * observes, and contributes no wake deadline.
 */

#ifndef SAC_SIM_WATCHDOG_HH
#define SAC_SIM_WATCHDOG_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/types.hh"
#include "sim/cancel.hh"
#include "sim/run_service.hh"

namespace sac {

/**
 * Per-run watchdog deadlines (System::setRunLimits). Zero means
 * "no limit" for every field. Cycle limits are exact and
 * deterministic — a run aborts at the same simulated cycle whether
 * fast-forward is on or off and however many sweep workers ran it;
 * the wall-clock limit is inherently host-dependent and exists for
 * fleet hygiene, not reproducibility.
 */
struct RunLimits
{
    /** Abort (SimTimeoutError) once the clock passes this cycle. */
    Cycle maxCycles = 0;
    /**
     * Abort (SimTimeoutError) after this much host time; armed as a
     * per-run CancelToken deadline (CancelWatchdog).
     */
    double maxWallMs = 0.0;
    /**
     * Override of the built-in per-kernel livelock cap (50M cycles);
     * exceeding it throws LivelockError with a post-mortem digest.
     */
    Cycle livelockCycles = 0;

    bool any() const
    {
        return maxCycles > 0 || maxWallMs > 0.0 || livelockCycles > 0;
    }
};

/**
 * Thrown when a RunLimits deadline expires. what() includes the
 * occupancy digest captured at the moment of the timeout.
 */
class SimTimeoutError : public std::runtime_error
{
  public:
    explicit SimTimeoutError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/**
 * Thrown when a kernel exceeds the livelock cap. Replaces the old
 * silent panic: what() carries a telemetry snapshot of the counter
 * totals plus a queue/MSHR occupancy digest for post-mortem.
 */
class LivelockError : public std::runtime_error
{
  public:
    explicit LivelockError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/** Post-mortem context a watchdog embeds in its exception text. */
using DigestFn = std::function<std::string()>;

/**
 * Hard per-kernel cycle cap: a kernel exceeding it indicates a
 * simulator bug (a wedged queue, a lost wakeup), so the watchdog
 * throws LivelockError with the occupancy digest instead of letting
 * the run spin forever. RunLimits::livelockCycles overrides the
 * built-in 50M-cycle cap.
 */
class LivelockWatchdog final : public RunService
{
  public:
    /** Built-in per-kernel cap when RunLimits does not override it. */
    static constexpr Cycle defaultCap = 50'000'000;

    LivelockWatchdog(const RunLimits &limits, DigestFn digest)
        : limits_(limits), digest_(std::move(digest))
    {
    }

    /** Rebases the cap at a kernel launch. */
    void beginKernel(Cycle start) { kernelStart_ = start; }

    /** Effective cap: the RunLimits override or the built-in 50M. */
    Cycle cap() const
    {
        return limits_.livelockCycles > 0 ? limits_.livelockCycles
                                          : defaultCap;
    }

    const char *name() const override { return "livelock-watchdog"; }
    Cycle nextDue(Cycle now) const override;
    void poll(const TickInfo &tick) override;

  private:
    const RunLimits &limits_;
    DigestFn digest_;
    Cycle kernelStart_ = 0;
};

/** RunLimits::maxCycles: aborts the run past an absolute cycle. */
class CycleDeadlineWatchdog final : public RunService
{
  public:
    CycleDeadlineWatchdog(const RunLimits &limits, DigestFn digest)
        : limits_(limits), digest_(std::move(digest))
    {
    }

    const char *name() const override { return "cycle-deadline"; }
    Cycle nextDue(Cycle now) const override;
    void poll(const TickInfo &tick) override;

  private:
    const RunLimits &limits_;
    DigestFn digest_;
};

/**
 * Cooperative cancellation at the watchdog poll points, and the one
 * wall-clock check of the run loop. start() arms a per-run
 * CancelToken whose deadline is RunLimits::maxWallMs and whose parent
 * is the token attached with System::setCancelToken; without a budget
 * the watchdog observes the attached token directly. Either way a
 * cancelled token aborts the run with SimTimeoutError, so a
 * cancelled or over-budget job finishes as a timed_out record.
 *
 * The token is checked every checkInterval iterations on the dense
 * path (one iteration == one cycle, so the stride bounds the check's
 * staleness), but on every iteration that lands after a fast-forward
 * jump — a single skipped-ahead iteration can cover millions of
 * cycles, and a strided check would let a deadline slip arbitrarily
 * far. Wall-clock by nature (who cancels and when is host timing),
 * so it contributes no wake deadline; records delivered before the
 * cancellation stay byte-identical to an uncancelled run.
 */
class CancelWatchdog final : public RunService
{
  public:
    /** Dense-path stride between token checks. */
    static constexpr std::uint64_t checkInterval = 1024;

    /** @p digest is embedded in the diagnostic when the wall budget
     *  expires. */
    CancelWatchdog(const RunLimits &limits, DigestFn digest)
        : limits_(limits), digest_(std::move(digest))
    {
    }

    /**
     * Starts a run observing @p token (may be nullptr): arms the wall
     * budget, if any, as a child of it, and resets the stride. Call
     * once at the top of every run.
     */
    void start(const CancelToken *token);

    const char *name() const override { return "cancel"; }
    Cycle nextDue(Cycle) const override { return cycleNever; }
    void poll(const TickInfo &tick) override;

  private:
    const RunLimits &limits_;
    DigestFn digest_;
    /** The per-run budget token; null when maxWallMs is unset. */
    std::unique_ptr<CancelToken> budget_;
    /** What poll() checks: budget_, else the attached token. */
    const CancelToken *observed_ = nullptr;
    std::uint64_t checks_ = 0;
};

} // namespace sac

#endif // SAC_SIM_WATCHDOG_HH
