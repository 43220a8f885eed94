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
 * The run loop itself is thin: every periodic concern (telemetry
 * sampling, the SAC window, the dynamic-LLC epoch, occupancy
 * sampling, fault injection, the watchdogs) is a RunService
 * registered once in a RunServiceRegistry; the loop body polls the
 * registry and the fast-forward wake computation asks it for the
 * earliest control deadline, so the two can never disagree
 * (sim/run_service.hh).
 */

#ifndef SAC_SIM_SYSTEM_HH
#define SAC_SIM_SYSTEM_HH

#include <array>
#include <functional>
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
#include "sim/chip.hh"
#include "sim/kernel_scheduler.hh"
#include "sim/run_service.hh"
#include "sim/sched.hh"
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
    Failed,    //!< threw (bad config/trace, simulator panic, fault)
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
     * StreamTraceMux, which applies the identical
     * CtaScheduler::partitionClusters split.
     */
    RunResult run(const Scenario &scenario);

    /**
     * Installs watchdog deadlines for the coming run; call before
     * run(). Cycle deadlines fire at the exact same simulated cycle
     * with fast-forward on or off (their watchdog services
     * participate in the registry wake), so aborted runs are as
     * deterministic as completed ones. The wall-clock budget is armed
     * at the top of each run as a CancelToken deadline whose parent
     * is the token attached with setCancelToken().
     */
    void setRunLimits(const RunLimits &limits) { limits_ = limits; }

    /**
     * Attaches a cooperative cancellation token (non-owning, may be
     * nullptr); call before run(). The run loop observes it at the
     * watchdog poll points (sim/watchdog.hh, CancelWatchdog) and
     * aborts with SimTimeoutError once it reads cancelled — the same
     * path the wall-clock budget takes, so the ExperimentEngine
     * classifies the job as timed_out.
     */
    void setCancelToken(const CancelToken *token) { cancel_ = token; }

    /**
     * Arms a deterministic fault: @p fn is called from the run loop
     * the first time the clock reaches @p at (exact under
     * fast-forward). The fault-injection harness uses this to throw
     * at cycle N; fn may also mutate the system for chaos testing.
     * One-shot: the hook disarms before it fires.
     */
    void setFaultHook(Cycle at, std::function<void(System &)> fn);

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
     * Advances simulated time by one *event*: pops the scheduler's
     * wake queue and ticks only the components that are due this
     * cycle, first jumping the clock to the earliest component or
     * run-loop-service deadline when nothing is due now (replaying
     * the skipped bandwidth refills bit-exactly per component). With
     * fast-forward disabled, identical to tick() — the per-cycle
     * reference loop. Either way every observable result is the
     * same; only wall time differs (sim/sched.hh has the contract).
     */
    void advance();

    /**
     * Enables/disables next-event fast-forward for run(). On by
     * default; turning it off forces the per-cycle loop (the
     * differential-testing escape hatch, sacsim --no-fast-forward).
     * May be toggled any time, including between kernels.
     */
    void setFastForward(bool enabled) { fastForward_ = enabled; }

    /** Fast-forward effectiveness counters for one run. */
    struct FastForwardStats
    {
        /** Number of clock jumps taken. */
        std::uint64_t skips = 0;
        /** Cycles covered by jumps (not ticked one by one). */
        std::uint64_t skippedCycles = 0;
        // Scheduler regime counters (sim::Scheduler::Stats), merged
        // in so one struct diagnoses a bench row end to end.
        /** Event-driven cycles actually run (runCycle calls). */
        std::uint64_t schedCycles = 0;
        /** Heap pops taken in the sparse regime. */
        std::uint64_t heapPops = 0;
        /** Cycles run in the dense (flat-sweep) regime. */
        std::uint64_t denseCycles = 0;
        /** Contiguous dense spans entered. */
        std::uint64_t denseSpans = 0;
        /** Due-fraction histogram, bucket i = [i/8, (i+1)/8). */
        std::array<std::uint64_t, 8> dueHist{};
    };

    /**
     * Skip and scheduler-regime counters for the current/last run.
     * Deliberately not part of RunResult: results must stay
     * byte-identical with fast-forward on and off, and these
     * counters are zero when off.
     */
    FastForwardStats fastForwardStats() const;

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

    /** The run-loop service schedule (tests, diagnostics). */
    const RunServiceRegistry &runServices() const { return services_; }

    /** Aggregate LLC requests/hits over all slices (current totals). */
    std::pair<std::uint64_t, std::uint64_t> llcTotals() const;

    /**
     * Dumps the system and per-chip counter totals, one
     * "path value  # description" line each, values as exact
     * integers (sacsim --stats).
     */
    void dumpStats(std::ostream &os) const;

  private:
    // RunService adapters over System-owned state (defined in
    // system.cc; as member classes they see System's internals).
    class FaultHookService;
    class SamplerService;
    class DynamicEpochService;
    class OccupancyService;
    class NetUnit;

    /** The kernel-flow service drives launch/finish on the System. */
    friend class KernelScheduler;

    /**
     * One inter-chip network phase: credit refill, link movement,
     * then arrival dispatch into the chips. The NetUnit component's
     * tick; also phases 1+2 of the reference System::tick().
     */
    void tickNetwork(Cycle now);
    /**
     * Kernel launch: begins the kernel on the stream's cluster range
     * and opens that tenant's profiling window.
     */
    void launchStreamKernel(int stream, const KernelDescriptor &kernel,
                            const CtaScheduler::Range &clusters);
    /**
     * Kernel boundary: flushes the stream's L1s and runs the
     * software-coherence LLC flush. When the stream owns every
     * cluster nothing else runs, so the clock jumps over the flush
     * envelope, as in the reference loop, and SAC reverts without a
     * charge. Otherwise only the stream's clusters stall while
     * co-resident streams keep running.
     */
    void finishStreamKernel(int stream, int kernel_index,
                            const CtaScheduler::Range &clusters,
                            Cycle kernel_start);
    /** Shared run loop + aggregation behind both run() overloads. */
    RunResult runStreams(std::vector<KernelStreamState> streams);
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
    /** Mode tag for a sample: SAC's live mode, else the org name. */
    std::string currentModeName() const;

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

    std::unique_ptr<Organization> org;
    SacOrg *sacOrg = nullptr; // non-owning view when kind == Sac
    CoherenceManager coherence;
    std::unique_ptr<DynamicPartitionController> dynCtrl;

    std::vector<std::unique_ptr<Chip>> chips;
    InterChipNet icn;

    Cycle clock = 0;
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

    // Event-driven dense path (tentpole of the perf work; see
    // sim/sched.hh for the contract and docs/PERFORMANCE.md for the
    // byte-identity argument). Components register in the ctor in
    // reference phase order; ordinals are their in-cycle position.
    sim::Scheduler sched_;
    std::unique_ptr<NetUnit> netUnit_;
    sim::ComponentId netId_ = sim::invalidComponent;

    bool fastForward_ = true;
    FastForwardStats ffStats_;
    /** True when the last advance() jumped the clock. */
    bool lastAdvanceSkipped_ = false;
    /**
     * Service wake cached by run()'s poll sweep (RunServiceRegistry::
     * poll returns it for free); advance() recomputes it only when a
     * setter re-armed a service or no poll has happened yet.
     */
    Cycle svcWake_ = 0;
    bool svcWakeValid_ = false;

    // Watchdog limits (see RunLimits), the attached cancellation token
    // and the fault-injection hook.
    RunLimits limits_;
    const CancelToken *cancel_ = nullptr;
    Cycle faultAt_ = cycleNever;
    std::function<void(System &)> faultFn_;

    // Telemetry (null unless enableTelemetry() was called).
    telemetry::Options telemetryOpts_;
    std::unique_ptr<telemetry::Sampler> sampler_;
    std::unique_ptr<telemetry::EventTrace> eventTrace_;

    /**
     * The single source of run-loop deadlines: every service below
     * registers here once; run() polls the registry and
     * nextWakeCycle() derives every control deadline from it.
     */
    RunServiceRegistry services_;
    std::unique_ptr<FaultHookService> faultSvc_;
    std::unique_ptr<SamplerService> samplerSvc_;
    /** SAC control (per-tenant windows); created when kind == Sac. */
    std::unique_ptr<TenantSacService> sacSvc_;
    /** Kernel-flow service; created on the first run, reset per run. */
    std::unique_ptr<KernelScheduler> ks_;
    /** Per-stream result accumulators of the current run. */
    std::vector<StreamResult> streamResults_;
    std::unique_ptr<DynamicEpochService> epochSvc_;
    std::unique_ptr<OccupancyService> occupancySvc_;
    std::unique_ptr<LivelockWatchdog> livelockDog_;
    std::unique_ptr<CycleDeadlineWatchdog> cycleDog_;
    std::unique_ptr<CancelWatchdog> cancelDog_;

    RunResult result;
};

} // namespace sac

#endif // SAC_SIM_SYSTEM_HH
