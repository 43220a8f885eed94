/**
 * @file
 * The sim::Component scheduling API: the event-driven dense-path core.
 *
 * A Component is one schedulable unit of the simulated machine (an SM
 * cluster with its response port, an LLC slice, a chip's memory
 * pipeline, the inter-chip network). Components register once with a
 * Scheduler, which keys each of them in a WakeQueue — an indexed
 * min-heap ordered by (next-due cycle, registration ordinal) — and
 * System::advance() pops and ticks only the components that are due,
 * instead of fanning out to all of them every cycle.
 *
 * The contract that makes the event-driven loop byte-identical to the
 * per-cycle reference loop (docs/PERFORMANCE.md has the proofs):
 *
 *  1. nextEventCycle() is conservative: never later than the first
 *     cycle the component would do observable work. Early is fine —
 *     a spurious tick of an idle component is a no-op, because the
 *     reference loop ticks everything every cycle anyway.
 *  2. Keys move *earlier* only through Scheduler::wake(), called by
 *     producers at every push chokepoint (enqueue, credit refill,
 *     MSHR fill, memory-slot free). Keys move *later* only lazily:
 *     when the component is popped and ticked, the scheduler re-keys
 *     it from its own nextEventCycle(). A state change that defers
 *     work (a pause, a drained queue) therefore costs at most one
 *     spurious tick, never a missed one.
 *  3. Registration ordinal == reference phase order. Within a cycle,
 *     due components tick in ordinal order, and a wake targeting the
 *     current cycle from a component at an equal or later ordinal is
 *     clamped to the next cycle — exactly the visibility the phase
 *     structure of System::tick() gives pushes.
 *  4. Idle bandwidth refills are replayed per component: the
 *     scheduler tracks each component's last ticked cycle and calls
 *     skipIdleCycles() for the gap before re-ticking, so budget caps
 *     saturate bit-exactly as if the component had been ticked every
 *     cycle. Clock jumps that the reference loop also takes without
 *     ticking (kernel-boundary flush stalls) are excluded via
 *     onClockJump().
 */

#ifndef SAC_SIM_SCHED_HH
#define SAC_SIM_SCHED_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace sac {
namespace sim {

/** Registration ordinal; doubles as the in-cycle phase position. */
using ComponentId = std::uint32_t;

constexpr ComponentId invalidComponent = ~ComponentId(0);

/** One schedulable unit of the simulated machine. */
class Component
{
  public:
    virtual ~Component() = default;

    /** Stable identifier for diagnostics ("c0.cluster3", "icn"). */
    virtual const char *name() const = 0;

    /** Performs one cycle of work at @p now. */
    virtual void tick(Cycle now) = 0;

    /**
     * Earliest cycle (>= @p now) this component might do observable
     * work given its current state, or cycleNever when only another
     * component's push can create work for it. Conservative: never
     * late, early at worst costs a spurious tick.
     */
    virtual Cycle nextEventCycle(Cycle now) const = 0;

    /**
     * Replays @p cycles of idle per-cycle bandwidth refills in one
     * call (see BwQueue::skipIdleCycles). Default no-op for
     * timestamp-based components with no per-cycle state.
     */
    virtual void
    skipIdleCycles(Cycle cycles)
    {
        (void)cycles;
    }
};

/**
 * Indexed min-heap of components keyed by next-due cycle, ties broken
 * by registration ordinal. Components are never removed; wake() is a
 * decrease-key (sift-up only), rekey() an exact set. Both are O(log n)
 * worst case, and wake() is O(1) when the key does not improve — the
 * common case on hot push paths.
 *
 * The queue has a second, *flat* mode for dense traffic (most
 * components due every cycle): wake() and rekey() just store the key
 * — no sift, no heap traffic — and the owner sweeps the ordinal-
 * ordered key array directly instead of popping. The heap array goes
 * stale while flat; setFlat(false) re-heapifies in O(n). Keys are
 * authoritative in both modes, so the switch never loses a deadline.
 */
class WakeQueue
{
  public:
    /** Registers @p c due at @p due; returns its ordinal. */
    ComponentId add(Component &c, Cycle due = 0);

    /**
     * Moves @p id's key earlier, to min(key, at). Never moves a key
     * later — deferring work is the owner's lazy re-key at pop time.
     * Inline: producers call this at every push chokepoint, and the
     * common cases (key unchanged, or flat mode's plain store) are a
     * compare and a write.
     */
    void
    wake(ComponentId id, Cycle at)
    {
        SAC_ASSERT(id < comps_.size(), "wake of unregistered component ",
                   id);
        if (at >= keys_[id])
            return; // lazy re-key: only the owner ever moves a key later
        keys_[id] = at;
        if (!flat_)
            siftUp(pos_[id]);
    }

    /** Sets @p id's key to exactly @p at (owner re-key after a tick). */
    void rekey(ComponentId id, Cycle at);

    /** Current key of @p id. */
    Cycle keyOf(ComponentId id) const { return keys_[id]; }

    /**
     * Selects flat (dense) or heap (sparse) mode. Leaving flat mode
     * rebuilds the heap from the authoritative key array in O(n).
     */
    void setFlat(bool flat);
    bool flat() const { return flat_; }

    /**
     * Smallest key over all components; cycleNever when empty. O(1)
     * from the heap root in sparse mode, a linear min-scan of the key
     * array in flat mode (n is small and the scan is branch-free).
     */
    Cycle nextDue() const;

    /**
     * Ordinal of the minimum-(key, ordinal) component if its key is
     * <= @p now, else invalidComponent. Does not remove it; the
     * caller ticks and rekey()s it, which surfaces the next one.
     * Sparse (heap) mode only.
     */
    ComponentId
    peekDue(Cycle now) const
    {
        if (heap_.empty() || keys_[heap_[0]] > now)
            return invalidComponent;
        return heap_[0];
    }

    Component &component(ComponentId id) const { return *comps_[id]; }
    std::size_t size() const { return comps_.size(); }

  private:
    bool
    before(ComponentId a, ComponentId b) const
    {
        return keys_[a] != keys_[b] ? keys_[a] < keys_[b] : a < b;
    }
    void siftUp(std::size_t i);
    void siftDown(std::size_t i);

    std::vector<Component *> comps_; //!< by ordinal
    std::vector<Cycle> keys_;        //!< by ordinal
    std::vector<std::uint32_t> pos_; //!< ordinal -> heap index
    std::vector<ComponentId> heap_;
    bool flat_ = false;
};

/**
 * Drives the registered components through event-driven cycles while
 * preserving reference-loop semantics: per-component idle-refill
 * replay, in-cycle ordinal ordering with same-cycle wake clamping,
 * and clock-jump exclusion.
 *
 * The scheduler runs in one of two regimes, switched adaptively on
 * the measured due-fraction (components ticked / components
 * registered) with hysteresis:
 *
 *  - *sparse* (the WakeQueue heap): pops only due components; pays
 *    O(log n) per pop/wake but skips idle components entirely. Wins
 *    when few components are due per cycle.
 *  - *dense* (flat sweep): walks the ordinal-ordered key array and
 *    ticks every component whose key is due — no heap traffic at
 *    all. Wins when most components are due every cycle, exactly
 *    where heap maintenance costs more than it saves.
 *
 * The regimes are observationally identical (same components ticked
 * in the same ordinal order each cycle; docs/PERFORMANCE.md has the
 * argument), so the switch is invisible in results. Fast-forward
 * keeps working in the dense regime — nextDue() degrades to a short
 * linear scan — so a dense kernel with an idle tail still skips it.
 */
class Scheduler
{
  public:
    /** Registers @p c; ordinals must follow reference phase order. */
    ComponentId add(Component &c);

    /**
     * Producer notification: @p id may have work at @p at. During a
     * runCycle() the cycle is clamped so a push from an equal-or-
     * later ordinal is seen next cycle, matching the reference
     * loop's phase visibility. Inline for the same reason as
     * WakeQueue::wake — this sits on every push chokepoint.
     */
    void
    wake(ComponentId id, Cycle at)
    {
        if (inCycle_) {
            // Same-cycle visibility matches the reference phase
            // order: a push is seen this cycle only by later-ordinal
            // components; earlier (or same) ordinals already had
            // their phase slot.
            const Cycle floor = id <= curOrdinal_ ? curCycle_ + 1
                                                  : curCycle_;
            at = at > floor ? at : floor;
        }
        queue_.wake(id, at);
    }

    /**
     * Makes every component due at @p now. The escape hatch after an
     * arbitrary external mutation (fault-injection hooks may do
     * anything); one all-ticked cycle re-establishes exact keys.
     */
    void wakeAll(Cycle now);

    /** Earliest cycle any component is keyed for. */
    Cycle nextDue() const { return queue_.nextDue(); }

    /**
     * Ticks every due component at @p now in ordinal order, replaying
     * each one's idle refill gap first, then lazily re-keys it from
     * its own nextEventCycle(now + 1).
     */
    void runCycle(Cycle now);

    /**
     * The clock jumped from @p from to @p to without ticking (a
     * whole-machine kernel-boundary flush stall). The reference loop
     * performs no refills across such a jump, so the replay
     * bookkeeping skips it too. Every key below @p to is raised to
     * it: the reference loop ticks everything at the landing cycle
     * in ordinal order, and stale keys would otherwise pop in key
     * order ahead of components the landing cycle woke.
     */
    void onClockJump(Cycle from, Cycle to);

    /**
     * The reference loop ticked every component at @p now
     * (System::tick() ran). Keeps the replay bookkeeping exact when
     * reference ticks and event-driven advances interleave.
     */
    void onFullTick(Cycle now);

    const WakeQueue &queue() const { return queue_; }

    /** Regime counters for one run (diagnosable from bench rows). */
    struct Stats
    {
        /** runCycle() invocations (denominator for the ratios). */
        std::uint64_t cycles = 0;
        /** Heap pops taken in the sparse regime. */
        std::uint64_t heapPops = 0;
        /** Cycles run in the dense (flat-sweep) regime. */
        std::uint64_t denseCycles = 0;
        /** Contiguous dense spans entered (hysteresis transitions). */
        std::uint64_t denseSpans = 0;
        /**
         * Due-fraction histogram: cycle counts by ticked/registered
         * fraction, bucket i covering [i/8, (i+1)/8).
         */
        std::array<std::uint64_t, 8> dueHist{};
    };

    const Stats &stats() const { return stats_; }

    /** True while the dense (flat-sweep) regime is active. */
    bool denseRegime() const { return queue_.flat(); }

    // Hysteresis constants (due-fraction thresholds in eighths, and
    // the consecutive-cycle count required to switch). The crossover
    // is low because the flat sweep is so cheap: checking all n keys
    // is a handful of sequential cache lines, while every heap pop
    // pays a siftDown over log n scattered ones — profiled on the
    // dense bench shapes, the sweep wins as soon as even 1/8 of the
    // components tick per cycle. Enter dense at >= 1/8 due for
    // enterRunLen cycles; return to sparse only after exitRunLen
    // cycles below 1/8, where whole-cycle skipping is the win and
    // the heap's O(1) nextDue() matters.
    static constexpr std::uint32_t enterNumerator = 1; //!< of 8
    static constexpr std::uint32_t exitNumerator = 0;  //!< of 8
    static constexpr std::uint32_t enterRunLen = 8;
    static constexpr std::uint32_t exitRunLen = 16;

  private:
    void tickComponent(ComponentId id, Cycle now);
    void updateRegime(std::uint32_t ticked);

    WakeQueue queue_;
    /** Per component: cycle after its last tick (replay gap base). */
    std::vector<Cycle> lastTickPlus1_;
    /** Cycle after the last full reference tick (see onFullTick). */
    Cycle fullTickFloor_ = 0;
    Cycle curCycle_ = 0;
    ComponentId curOrdinal_ = invalidComponent;
    bool inCycle_ = false;

    Stats stats_;
    /** Consecutive cycles at/above the enter threshold (sparse). */
    std::uint32_t denseRun_ = 0;
    /** Consecutive cycles at/below the exit threshold (dense). */
    std::uint32_t sparseRun_ = 0;
};

} // namespace sim
} // namespace sac

#endif // SAC_SIM_SCHED_HH
