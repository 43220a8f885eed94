/**
 * @file
 * SM cluster: two SMs sharing one NoC port (the paper's concentration
 * unit), with a private write-through L1, L1 MSHRs and a warp pool.
 *
 * Loads that hit the L1 keep the warp running; misses block it until
 * the fill returns through the response network. Stores write through
 * (no L1 allocation) and are non-blocking, bounded by an outstanding
 * store cap so they still exert backpressure.
 */

#ifndef SAC_GPU_SM_CLUSTER_HH
#define SAC_GPU_SM_CLUSTER_HH

#include <algorithm>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "common/ring.hh"
#include "common/config.hh"
#include "common/types.hh"
#include "gpu/kernel.hh"
#include "gpu/warp.hh"
#include "noc/queue.hh"
#include "sim/sched.hh"

namespace sac {

/** Hook a cluster uses to inject an L1 miss into the system. */
class ClusterEnv
{
  public:
    virtual ~ClusterEnv() = default;

    /**
     * Routes and injects an L1 miss. The packet has source fields and
     * address set; the environment fills in home/serve routing.
     */
    virtual void injectMiss(Packet &&pkt, Cycle now) = 0;
};

/** Per-cluster statistics. */
struct ClusterStats
{
    std::uint64_t accesses = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l1MshrMerges = 0;
    std::uint64_t stallsMshrFull = 0;
    std::uint64_t stallsWriteCap = 0;
    /** Sum of load round-trip latencies (for averages). */
    std::uint64_t loadLatencySum = 0;
    std::uint64_t loadsCompleted = 0;
};

/** One SM cluster. */
class SmCluster : public sim::Component
{
  public:
    SmCluster(const GpuConfig &cfg, ChipId chip, ClusterId id,
              TraceSource &trace);

    /**
     * Binds the scheduling-unit view (sim::Component): this cluster
     * plus the response-crossbar port that feeds it. Must be called
     * before the Component overrides are used.
     */
    void bind(ClusterEnv &env, BwQueue &resp_port, std::string name);

    // --- sim::Component ---------------------------------------------------
    const char *name() const override { return name_.c_str(); }
    /**
     * One reference cluster phase: refill and drain the bound
     * response port into deliver(), then issue via tick(now, env).
     */
    void tick(Cycle now) override;
    /** min(response-port event, issue event) for the bound unit. */
    Cycle nextEventCycle(Cycle now) const override;
    /** Replays idle refills of the bound response port. */
    void skipIdleCycles(Cycle cycles) override;

    /** Starts a kernel: every warp gets @p accesses_per_warp to issue. */
    void beginKernel(std::uint64_t accesses_per_warp, Cycle now);

    /** Issues up to the cluster issue width of accesses. */
    void tick(Cycle now, ClusterEnv &env);

    /**
     * Delivers a response that traversed the chip's response crossbar
     * (read fill or write ack): fills the L1 and wakes warps.
     */
    void deliver(const Packet &resp, Cycle now);

    /** All warps retired and nothing outstanding. */
    bool done() const;

    /** Invalidates the L1 (software coherence at kernel boundaries). */
    void flushL1();

    /** Drops one line from the L1 (hardware-coherence invalidation). */
    void invalidateL1Line(Addr line_addr) { l1.invalidate(line_addr); }

    /** Pauses issue until @p until (reconfiguration drain). */
    void pauseUntil(Cycle until) { pausedUntil = until; }

    /**
     * Earliest cycle this cluster might issue an access: now when a
     * warp is ready, else the earliest pending wake, both clamped to
     * the pause window. cycleNever when every warp is blocked, parked
     * or retired: blocked and parked warps resume only from deliver(),
     * and the responses that trigger deliver() are response-port
     * events, so sleeping through them is impossible.
     */
    Cycle issueEventCycle(Cycle now) const
    {
        if (sched.hasReady())
            return std::max(now, pausedUntil);
        const Cycle wake = sched.nextPendingCycle();
        if (wake == cycleNever)
            return cycleNever;
        return std::max({now, wake, pausedUntil});
    }

    const ClusterStats &stats() const { return stats_; }
    void resetStats() { stats_ = ClusterStats{}; }

    /** Kernel stream this cluster executes (0 in a plain run). */
    void setStream(int stream) { stream_ = stream; }
    int stream() const { return stream_; }

    ChipId chip() const { return chip_; }
    ClusterId id() const { return id_; }
    std::size_t outstanding() const
    {
        return l1Mshrs.inUse() + static_cast<std::size_t>(outstandingWrites);
    }

  private:
    bool issueOne(Cycle now, ClusterEnv &env);
    Packet makePacket(const MemAccess &acc, int warp, Cycle now) const;
    /** Parks @p warp off the ready list with @p acc cached until the
     *  stalling cap frees (see WarpCtx::stalled). */
    void park(int warp, const MemAccess &acc, Ring<int> &queue);
    /** Returns the longest-parked warp in @p queue to the ready list. */
    void resumeParked(Ring<int> &queue, Cycle now);

    ChipId chip_;
    ClusterId id_;
    const GpuConfig &cfg_;
    TraceSource &trace_;

    // Scheduling-unit binding (sim::Component); null until bind().
    ClusterEnv *env_ = nullptr;
    BwQueue *respPort_ = nullptr;
    std::string name_;

    SetAssocCache l1;
    MshrFile l1Mshrs;
    WarpScheduler sched;
    std::vector<WarpCtx> warps;

    // Warps parked on a full MSHR file / outstanding-write cap, in
    // park order. Resumed one-per-freed-slot from deliver(); a parked
    // warp always implies in-flight traffic, so resumption is never
    // starved (see issueEventCycle()).
    Ring<int> mshrParked_;
    Ring<int> writeParked_;

    /** Scratch for l1Mshrs.complete() targets, reused across fills. */
    std::vector<Packet> fillTargets_;

    int outstandingWrites = 0;
    int retiredWarps = 0;
    int stream_ = 0;
    Cycle pausedUntil = 0;

    ClusterStats stats_;
};

} // namespace sac

#endif // SAC_GPU_SM_CLUSTER_HH
