/**
 * @file
 * The multi-chip GPU system: chips + inter-chip network + page table
 * + active LLC organization + (for SAC) the runtime control service.
 *
 * This is the library's main entry point: construct a System with a
 * configuration, an organization kind and a trace source, then call
 * run() with the kernel sequence. The returned RunResult carries the
 * measurements every bench/figure consumes.
 *
 * The run loop itself is thin: tick() one cycle, then one control
 * step runs every periodic check in a fixed order (telemetry
 * sampling, the SAC windows, the dynamic-LLC epoch, occupancy
 * sampling, the run limits, kernel flow). One shortcut: while no
 * stream has a kernel resident and the machine is at rest, a tick
 * would change nothing but the clock, so the loop jumps the clock to
 * the earliest control threshold instead (docs/PERFORMANCE.md).
 */

#ifndef SAC_SIM_SYSTEM_HH
#define SAC_SIM_SYSTEM_HH

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"
#include "gpu/kernel.hh"
#include "llc/coherence.hh"
#include "llc/dynamic_partition.hh"
#include "llc/organization.hh"
#include "mem/address_map.hh"
#include "mem/page_table.hh"
#include "noc/interchip.hh"
#include "sac/tenant.hh"
#include "sim/cancel.hh"
#include "sim/chip.hh"
#include "sim/watchdog.hh"
#include "telemetry/event_trace.hh"
#include "telemetry/sampler.hh"

namespace sac {

/**
 * Outcome classification of one simulation job. Everything except Ok
 * means the measurements in the carrying RunResult are partial or
 * absent; the diagnostic string says why.
 */
enum class RunStatus : std::uint8_t
{
    Ok,        //!< ran to completion; measurements are valid
    Failed,    //!< threw (bad config/trace, simulator panic)
    TimedOut,  //!< hit a per-job cycle or wall-clock deadline
    Livelocked //!< hit the livelock cap; diagnostic holds the digest
};

const char *toString(RunStatus status);

/** Parses toString(RunStatus) output; throws ValidationError else. */
RunStatus runStatusFromName(const std::string &name);

struct Scenario;

/**
 * Per-stream measurements of a multi-tenant run. Cluster-side
 * counters (accesses, L1, load latency) are exact per-stream splits;
 * LLC counters come from the per-slice stream accounting
 * ("sac.results.v4" adds these under "streams").
 */
struct StreamResult
{
    int stream = 0;
    /** Stream profile name ("CFD"). */
    std::string name;
    /** Cycle the stream's first kernel actually launched. */
    Cycle launchCycle = 0;
    /** Cycle the stream's last kernel completed. */
    Cycle finishCycle = 0;
    std::vector<Cycle> kernelCycles;

    std::uint64_t accesses = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t llcRequests = 0;
    std::uint64_t llcHits = 0;
    double avgLoadLatency = 0.0;
    Cycle flushStallCycles = 0;

    /** This tenant's profiling-window verdicts. */
    std::vector<SacDecision> sacDecisions;
};

/** Measurements of one complete run (all kernels). */
struct RunResult
{
    std::string organization;
    /** Ok unless the run was aborted; see RunStatus. */
    RunStatus status = RunStatus::Ok;
    /** Why status != Ok: exception text, watchdog digest. Empty on Ok. */
    std::string diagnostic;
    Cycle cycles = 0;
    std::vector<Cycle> kernelCycles;

    std::uint64_t accesses = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t llcRequests = 0;
    std::uint64_t llcHits = 0;

    /** Read responses delivered to SMs per cycle (Fig. 1c / Fig. 10). */
    double effLlcBw = 0.0;
    /** Breakdown by origin, responses per cycle (Fig. 10). */
    double bwLocalLlc = 0.0;
    double bwRemoteLlc = 0.0;
    double bwLocalMem = 0.0;
    double bwRemoteMem = 0.0;

    /** Average fraction of valid LLC lines holding remote data (Fig. 9). */
    double llcRemoteFraction = 0.0;

    double avgLoadLatency = 0.0;
    std::uint64_t icnBytes = 0;
    std::uint64_t dramBytes = 0;
    std::uint64_t invalidations = 0;
    int reconfigurations = 0;
    Cycle flushStallCycles = 0;

    /** SAC only: per-kernel mode decisions. */
    std::vector<SacDecision> sacDecisions;

    /** Per-stream measurements; empty unless two or more streams ran. */
    std::vector<StreamResult> streams;

    /**
     * Epoch samples and trace events; engaged only when the run was
     * started with telemetry enabled (System::enableTelemetry).
     */
    std::optional<telemetry::Timeline> timeline;

    double llcMissRate() const
    {
        return llcRequests
                   ? 1.0 - static_cast<double>(llcHits) /
                               static_cast<double>(llcRequests)
                   : 0.0;
    }
    double llcHitRate() const { return 1.0 - llcMissRate(); }
};

/** The simulated multi-chip GPU. */
class System : public ClusterEnv, public ChipHooks, public TenantHost
{
  public:
    /**
     * @param cfg validated system configuration
     * @param kind LLC organization to evaluate
     * @param trace workload access stream
     */
    System(const GpuConfig &cfg, OrgKind kind, TraceSource &trace);
    ~System() override;

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Executes the kernel sequence to completion: the one-stream
     * scenario, whose stream owns every cluster from cycle 0.
     */
    RunResult run(const std::vector<KernelDescriptor> &kernels);

    /**
     * Executes a scenario. The clusters are partitioned between the
     * streams, each progresses through its kernel sequence
     * independently, and with two or more streams the result gains
     * per-stream measurements. A one-stream scenario is a plain
     * run(kernels). The trace source this System was built with must
     * demultiplex streams the same way — use workload/scenario.hh's
     * StreamTraceMux, which takes the identical split from
     * Scenario::clusterRanges.
     */
    RunResult run(const Scenario &scenario);

    /**
     * Installs watchdog deadlines for the coming run; call before
     * run(). The cycle deadline fires at the exact same simulated
     * cycle with the at-rest jump on or off (the jump stops at it),
     * so aborted runs are as deterministic as completed ones. The
     * wall-clock budget is armed at the top of each run as a
     * CancelToken deadline whose parent is the token attached with
     * setCancelToken().
     */
    void setRunLimits(const RunLimits &limits) { limits_ = limits; }

    /**
     * Attaches a cooperative cancellation token (non-owning, may be
     * nullptr); call before run(). The control step observes it and
     * aborts with SimTimeoutError once it reads cancelled — the same
     * path the wall-clock budget takes, so the ExperimentEngine
     * classifies the job as timed_out.
     */
    void setCancelToken(const CancelToken *token) { cancel_ = token; }

    /**
     * Control steps between two reads of the cancellation token while
     * the loop ticks cycle by cycle (one step == one cycle, so the
     * stride bounds how stale the read is). A step that lands after
     * an at-rest jump always reads it: a single jump can cover
     * millions of cycles, and a strided read would let a deadline
     * slip arbitrarily far.
     */
    static constexpr std::uint64_t cancelCheckInterval = 1024;

    /**
     * Post-mortem digest of everything that can hold a request:
     * per-chip outstanding totals, per-slice MSHR/miss/fill/input
     * queue occupancy, memory-controller in-flight counts and the
     * counter totals a telemetry snapshot would capture. This is
     * what the livelock/timeout watchdogs embed in their exception
     * text, and it is cheap enough to call from a debugger.
     */
    std::string occupancyDigest() const;

    /**
     * Turns on timeline sampling and/or event tracing for the coming
     * run; call before run(). When never called the telemetry path
     * costs one null pointer check per tick and allocates nothing.
     */
    void enableTelemetry(const telemetry::Options &opts);

    /** Advances one cycle (exposed for fine-grained tests). */
    void tick();

    /**
     * Enables/disables the at-rest clock jump for run(). On by
     * default; off leaves the pure per-cycle loop, which tests use as
     * the reference. Results are identical either way. May be toggled
     * any time, including between kernels.
     */
    void setFastForward(bool enabled) { fastForward_ = enabled; }

    /** Clock-jump counters for one run. */
    struct FastForwardStats
    {
        /** At-rest clock jumps taken. */
        std::uint64_t skips = 0;
        /** Cycles covered by those jumps (not ticked one by one). */
        std::uint64_t skippedCycles = 0;
        // There is no event-driven scheduler any more; these read 0
        // so perfbench's scheduler metrics keep their names.
        std::uint64_t schedCycles = 0;
        std::uint64_t heapPops = 0;
        std::uint64_t denseCycles = 0;
    };

    /**
     * Jump counters for the current/last run. Deliberately not part
     * of RunResult: results must stay byte-identical with the jump on
     * and off, and these counters are zero when off.
     */
    FastForwardStats fastForwardStats() const { return ffStats_; }

    // --- ClusterEnv -----------------------------------------------------
    void injectMiss(Packet &&pkt, Cycle now) override;

    // --- ChipHooks -------------------------------------------------------
    void icnSend(ChipId src, ChipId dst, Packet pkt) override;
    void handleWrite(const Packet &pkt, ChipId writer) override;
    void replicaAdded(Addr line_addr, ChipId chip) override;
    void replicaRemoved(Addr line_addr, ChipId chip) override;
    void countResponse(const Packet &pkt) override;
    Cycle now() const override { return clock; }

    // --- component access (tests, benches) -------------------------------
    Chip &chip(ChipId c) { return *chips[static_cast<std::size_t>(c)]; }
    const GpuConfig &config() const { return cfg_; }

    /** Aggregate LLC requests/hits over all slices (current totals). */
    std::pair<std::uint64_t, std::uint64_t> llcTotals() const;

    /**
     * Dumps the system and per-chip counter totals, one
     * "path value  # description" line each, values as exact
     * integers (sacsim --stats).
     */
    void dumpStats(std::ostream &os) const;

  private:
    /** One kernel stream of the current run and what it measured. */
    struct StreamState
    {
        /** Cycle at which the stream's first kernel launches. */
        Cycle launchAt = 0;
        /** Cluster range the stream owns on every chip. */
        ClusterRange clusters;
        std::vector<KernelDescriptor> kernels;
        /** Next kernel to launch. */
        std::size_t next = 0;
        /** A kernel of this stream is resident. */
        bool running = false;
        /** Launch cycle of the resident kernel. */
        Cycle kernelStart = 0;
        /** The stream's measurements, filled in as it runs. */
        StreamResult result;

        bool started() const { return next > 0; }
        bool complete() const { return next == kernels.size() && !running; }
    };

    /**
     * The run loop's control step, after every tick, in a fixed and
     * byte-visible order: telemetry sample, SAC windows, dynamic-LLC
     * epoch, occupancy sample, livelock cap, cycle deadline,
     * cancellation and wall budget, kernel flow. Kernel flow goes
     * last, so at a completion cycle every other check has run before
     * the finish/launch mutates the machine. @p jumped says an at-rest
     * jump preceded this tick.
     */
    void control(bool jumped);
    /**
     * Pre-tick target of the at-rest jump: one cycle before the
     * earliest threshold below, so the check fires after the tick at
     * exactly the cycle it would have without the jump; cycleNever
     * when none is set. Only these thresholds can come due while no
     * kernel is resident: SAC windows open and re-profile only while
     * their stream's kernel runs, and the livelock cap counts only
     * while some kernel is resident.
     */
    Cycle nextDeadline() const;
    // Thresholds: the first post-tick clock at which each check fires
    // (cycleNever when it cannot). control() and nextDeadline() both
    // read them, so each deadline is defined once.
    Cycle sampleDue() const;
    Cycle epochDue() const;
    Cycle occupancyDue() const;
    Cycle cycleLimitDue() const;
    /** Arms the per-run wall budget and the token the run observes. */
    void startCancelWatch();
    /** Throws SimTimeoutError once the observed token is cancelled. */
    void checkCancel(bool jumped, int kernel);

    /**
     * True when tick() would change nothing but the clock: the
     * inter-chip network and every chip at rest.
     */
    bool atRest() const;
    /**
     * Kernel flow, the last check of control(): launches due first
     * kernels and finishes completed ones, dispatching each stream's
     * next kernel at the completion cycle, until nothing changes — a
     * kernel with zero accesses per warp retires all warps at launch.
     * Streams go in index order, so multi-stream ties are
     * deterministic.
     */
    void settle();
    /** Earliest launch cycle of a stream not yet started, else
     *  cycleNever: the one kernel-flow threshold of the at-rest jump
     *  (completions need none, since no kernel is resident then). */
    Cycle nextLaunch() const;
    /** True once every stream completed its kernel sequence. */
    bool finished() const;
    /**
     * True while some stream has a kernel resident. Between a
     * stream's last finish and another's first launch no kernel is:
     * only then may the at-rest jump run, and the livelock cap does
     * not count through such a gap.
     */
    bool anyResident() const;
    /**
     * Kernel launch: begins the stream's next kernel on its cluster
     * range and opens that tenant's profiling window.
     */
    void launchStreamKernel(StreamState &s);
    /**
     * Kernel boundary: flushes the stream's L1s and runs the
     * software-coherence LLC flush. When the stream owns every
     * cluster nothing else runs, so the clock jumps over the flush
     * envelope without ticking, and SAC reverts without a charge.
     * Otherwise only the stream's clusters stall while co-resident
     * streams keep running. A stream's finish cycle is read after
     * the jump.
     */
    void finishStreamKernel(StreamState &s);
    /** Shared run loop + aggregation behind both run() overloads. */
    RunResult runStreams(std::vector<StreamState> streams);
    /**
     * Writes back dirty lines and invalidates LLC content; returns
     * the cycle the flush completes (llc/flush_model.hh computes the
     * envelope). @p replicas_only keeps home-resident lines
     * (Static/Dynamic boundary flush).
     */
    Cycle flushLlc(bool replicas_only);
    void dynamicEpochUpdate();
    void sampleOccupancy();
    /** Current counter totals in the Sampler's input shape. */
    telemetry::Counters counterTotals() const;

    // --- TenantHost -------------------------------------------------------
    std::pair<std::uint64_t, std::uint64_t>
    streamLlcTotals(int stream) const override;
    void tenantWindowClosed(int stream, const SacDecision &d,
                            double hit_rate) override;
    void reconfigured(LlcMode to) override;
    void modeChangeFlush(const char *reason) override;

    GpuConfig cfg_;
    AddressMap map;
    PageTable pages;
    TraceSource &trace_;

    Organization org;
    CoherenceManager coherence;
    std::unique_ptr<DynamicPartitionController> dynCtrl;

    std::vector<std::unique_ptr<Chip>> chips;
    InterChipNet icn;

    Cycle clock = 0;
    /**
     * Index of the most recently launched kernel of any stream; 0 at
     * the start of each run. launchStreamKernel() sets it before
     * SAC's launch hook runs, so a flush at launch already sees it.
     */
    int currentKernel = 0;

    // Dynamic-LLC epoch bookkeeping.
    Cycle lastEpoch = 0;
    std::vector<std::uint64_t> chipDramSnapshot;
    std::vector<std::uint64_t> chipIcnInBytes;
    std::vector<std::uint64_t> chipIcnSnapshot;

    // Fig. 9 occupancy sampling.
    Cycle lastOccupancySample = 0;
    double occupancyRemoteSum = 0.0;
    std::uint64_t occupancySamples = 0;

    // Fig. 10 response accounting.
    std::array<std::uint64_t, 5> respByOrigin{};

    bool fastForward_ = true;
    FastForwardStats ffStats_;

    // Watchdog limits (see RunLimits) and the attached cancellation
    // token.
    RunLimits limits_;
    const CancelToken *cancel_ = nullptr;
    /** Latest launch of any stream: the livelock cap counts from it. */
    Cycle lastLaunch_ = 0;
    /** The per-run wall budget token; null when maxWallMs is unset. */
    std::unique_ptr<CancelToken> wallBudget_;
    /** What checkCancel() reads: wallBudget_, else cancel_. */
    const CancelToken *observed_ = nullptr;
    /** Per-cycle control steps this run, for the strided token read. */
    std::uint64_t cancelSteps_ = 0;

    // Telemetry (null unless enableTelemetry() was called).
    telemetry::Options telemetryOpts_;
    std::unique_ptr<telemetry::Sampler> sampler_;
    std::unique_ptr<telemetry::EventTrace> eventTrace_;

    /** SAC control (per-tenant windows); created when kind == Sac. */
    std::unique_ptr<TenantSacService> sacSvc_;
    /** The current run's kernel streams; set at the top of each run. */
    std::vector<StreamState> streams_;

    RunResult result;
};

} // namespace sac

#endif // SAC_SIM_SYSTEM_HH
