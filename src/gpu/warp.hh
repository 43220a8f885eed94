/**
 * @file
 * Warp contexts and the Greedy-Then-Oldest scheduler.
 *
 * A warp alternates compute gaps and memory accesses; it blocks on
 * loads until the response arrives and fires stores asynchronously.
 * The scheduler keeps ready warps in issue order with GTO stickiness:
 * the warp that issued last keeps issuing until it blocks, then the
 * oldest ready warp takes over (Rogers et al., MICRO'12).
 */

#ifndef SAC_GPU_WARP_HH
#define SAC_GPU_WARP_HH

#include <cstdint>
#include <queue>
#include <vector>

#include "common/ring.hh"
#include "common/types.hh"
#include "gpu/kernel.hh"

namespace sac {

/** Execution state of one warp context. */
struct WarpCtx
{
    /** Accesses still to issue this kernel. */
    std::uint64_t remaining = 0;
    /** Loads in flight (warp blocks at the MLP limit). */
    int inFlight = 0;
    /** Stalled at the MLP limit, waiting for a response. */
    bool blocked = false;
    /** Compute gap to apply when the blocking load returns. */
    std::uint16_t pendingGap = 0;
    /** Issued everything and nothing outstanding. */
    bool retired = false;
    /**
     * Access drawn from the trace but stalled on a structural cap
     * (MSHR file or outstanding-write cap). The warp is parked off the
     * ready list until the cap frees and re-issues exactly this access
     * — the trace never depends on how long the stall lasted.
     */
    MemAccess stalled;
    bool hasStalled = false;
};

/**
 * Tracks which warps are ready to issue at any cycle. Warps are
 * `wake()`d with a future ready time and surface through `pop()` once
 * that time arrives, in GTO order.
 */
class WarpScheduler
{
  public:
    explicit WarpScheduler(int num_warps);

    /** Schedules @p warp to become ready at @p at. */
    void wake(int warp, Cycle at);

    /**
     * Moves warps whose time has come into the ready list. The empty
     * / not-yet-due check is inline: every cluster tick calls this,
     * and most ticks surface no warp.
     */
    void
    advance(Cycle now)
    {
        if (!pending.empty() && (pending.top() >> warpBits) <= now)
            surfaceDue(now);
    }

    /** True when some warp can issue right now. */
    bool hasReady() const { return !ready.empty(); }

    /**
     * Next warp to issue (GTO: the last issuer if still ready,
     * otherwise the oldest). Does not remove it.
     */
    int peek() const;

    /** Removes @p warp from the ready list (it issued or blocked). */
    void consume(int warp);

    /** Drops all state (kernel boundary). */
    void reset();

    std::size_t readyCount() const { return ready.size(); }

    /** No warp is ready or sleeping. */
    bool idle() const { return ready.empty() && pending.empty(); }

  private:
    /**
     * Pending wake as one word, (cycle << warpBits) | warp: integer
     * order is (cycle, warp) order, so the heap pops exactly as a
     * heap of (cycle, warp) pairs would, at half the bytes per entry.
     */
    using Pending = std::uint64_t;
    /** Low key bits holding the warp id (GpuConfig caps warps at 2^15). */
    static constexpr unsigned warpBits = 16;

    /** Out-of-line slow path of advance(): pops every due warp. */
    void surfaceDue(Cycle now);

    int numWarps;
    Ring<int> ready;
    std::priority_queue<Pending, std::vector<Pending>,
                        std::greater<Pending>> pending;
    std::vector<char> inReady;
};

} // namespace sac

#endif // SAC_GPU_WARP_HH
