/**
 * @file
 * Run limits and the exceptions a run aborts with.
 *
 * System::control() checks the limits after every tick: the livelock
 * cap, the per-run cycle deadline, and cooperative cancellation
 * together with the per-run wall-clock budget. The cycle deadline is
 * one of the thresholds the at-rest jump stops at, so an aborted run
 * dies at the exact same simulated cycle with the jump on or off. The
 * wall-clock budget is host-dependent by nature (fleet hygiene, not
 * reproducibility): it rides a per-run CancelToken deadline and bounds
 * no jump.
 */

#ifndef SAC_SIM_WATCHDOG_HH
#define SAC_SIM_WATCHDOG_HH

#include <stdexcept>
#include <string>

#include "common/types.hh"

namespace sac {

/**
 * Per-run watchdog deadlines (System::setRunLimits). Zero means
 * "no limit" for every field. Cycle limits are exact and
 * deterministic — a run aborts at the same simulated cycle whether
 * the at-rest jump is on or off and however many sweep workers ran it;
 * the wall-clock limit is inherently host-dependent and exists for
 * fleet hygiene, not reproducibility.
 */
struct RunLimits
{
    /** Built-in per-kernel livelock cap when livelockCycles is 0. */
    static constexpr Cycle defaultLivelockCap = 50'000'000;

    /** Abort (SimTimeoutError) once the clock passes this cycle. */
    Cycle maxCycles = 0;
    /**
     * Abort (SimTimeoutError) after this much host time; armed as a
     * per-run CancelToken deadline.
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

    /**
     * Effective livelock cap. A kernel exceeding it indicates a
     * simulator bug (a wedged queue, a lost wakeup). The cap counts
     * from the latest launch of any stream, and only while some
     * stream has a kernel resident: an idle launch gap is not a
     * livelock, however long.
     */
    Cycle livelockCap() const
    {
        return livelockCycles > 0 ? livelockCycles : defaultLivelockCap;
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

} // namespace sac

#endif // SAC_SIM_WATCHDOG_HH
