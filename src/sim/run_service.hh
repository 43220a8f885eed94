/**
 * @file
 * The RunService framework: single-source run-loop scheduling.
 *
 * Every periodic concern of the System run loop — telemetry epoch
 * sampling, the SAC profiling window, the dynamic-partition epoch,
 * occupancy sampling, fault injection, the watchdogs — is a
 * RunService. A service declares *when* it next needs the loop's
 * attention (nextDue) and *what* to do when polled (poll). Services
 * register once, in a fixed phase order, with a RunServiceRegistry;
 * the per-cycle loop body and the fast-forward wake computation both
 * iterate that one registry.
 *
 * This is what makes "a control check fires at the same simulated
 * cycle with fast-forward on or off" hold by construction: a deadline
 * exists in exactly one place, so the skip layer cannot drift out of
 * sync with the loop body (docs/PERFORMANCE.md, "why fast-forward
 * stays exact").
 */

#ifndef SAC_SIM_RUN_SERVICE_HH
#define SAC_SIM_RUN_SERVICE_HH

#include <cstddef>
#include <vector>

#include "common/types.hh"

namespace sac {

/** What one run-loop iteration just did; handed to every poll(). */
struct TickInfo
{
    /** Post-tick clock: the cycle the loop body observes. */
    Cycle now = 0;
    /**
     * True when this iteration landed after a fast-forward clock
     * jump, i.e. an unbounded number of cycles passed since the
     * previous poll. Wall-clock-strided services must not assume one
     * iteration == one cycle when this is set.
     */
    bool fastForwarded = false;
    /** Index of the kernel currently in flight. */
    int kernel = 0;
};

/**
 * One periodic run-loop concern.
 *
 * The contract mirrors the fast-forward invariants
 * (docs/PERFORMANCE.md): nextDue() may be conservative (early) but
 * never late, and count-based triggers need no deadline — counts
 * only change when components do work, and that work is already a
 * component event.
 */
class RunService
{
  public:
    virtual ~RunService() = default;

    /** Stable identifier for diagnostics and docs. */
    virtual const char *name() const = 0;

    /**
     * The next post-tick `clock >= X` threshold at which poll() has
     * something to do, or cycleNever when only non-cycle triggers
     * (request counts, wall clock) remain. The registry converts the
     * threshold to its pre-tick wake cycle; services never do.
     */
    virtual Cycle nextDue(Cycle now) const = 0;

    /**
     * Runs the service's check for this iteration. Called after
     * every tick, in registry phase order; may mutate the system or
     * throw (watchdogs do).
     */
    virtual void poll(const TickInfo &tick) = 0;
};

/**
 * Poll order of the run loop, smallest first. The order is fixed and
 * byte-visible (a sampler polled after a window close sees the flush
 * traffic in a different epoch), so it is part of the contract.
 */
enum class RunPhase : int
{
    FaultHook = 0, //!< injected faults fire before any bookkeeping
    Telemetry,     //!< epoch sampling of the counter totals
    SacWindow,     //!< profile-window mid/close/re-profile
    DynamicEpoch,  //!< dynamic-LLC way repartitioning
    Occupancy,     //!< Fig. 9 remote-occupancy digest sampling
    Watchdog,      //!< livelock, cycle-deadline and wall-clock aborts
    /**
     * Kernel launch/completion dispatch — deliberately last, so at a
     * completion cycle every other service has already polled before
     * the finish/launch mutates the machine.
     */
    KernelFlow
};

/**
 * The ordered service registry. Non-owning: services live in the
 * System (or wherever their state belongs); the registry is the
 * single schedule both loop flavours consume.
 */
class RunServiceRegistry
{
  public:
    /**
     * Registers @p svc under @p phase. Services in the same phase
     * poll in registration order; registration order across phases
     * is irrelevant (enableTelemetry registers the sampler after the
     * watchdogs, yet it polls before them).
     */
    void add(RunPhase phase, RunService &svc);

    /**
     * Earliest pre-tick wake cycle any registered service needs,
     * cycleNever when no service has a cycle deadline. This is the
     * control-deadline half of System::nextWakeCycle().
     */
    Cycle nextWake(Cycle now) const;

    /**
     * Polls every service in phase order and returns the earliest
     * pre-tick wake cycle any of them needs afterwards (the same
     * value nextWake(tick.now) would compute, read in the same sweep
     * right after each service's poll so the extra virtual pass per
     * iteration disappears). Nothing runs between the end of a poll
     * sweep and the next advance, so the value is exactly as fresh as
     * an advance-time recomputation.
     */
    Cycle poll(const TickInfo &tick);

    std::size_t size() const { return entries_.size(); }

    /** Registered service names in poll order (tests, docs). */
    std::vector<const char *> names() const;

  private:
    struct Entry
    {
        int phase;
        RunService *svc;
    };
    std::vector<Entry> entries_;
};

/**
 * Pre-tick wake cycle for a post-tick `clock >= threshold` check:
 * the tick at `threshold - 1` raises the clock to `threshold`, so
 * the check fires at exactly the cycle it would have in the
 * per-cycle reference loop.
 */
Cycle checkWake(Cycle threshold);

} // namespace sac

#endif // SAC_SIM_RUN_SERVICE_HH
