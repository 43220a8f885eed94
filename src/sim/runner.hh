/**
 * @file
 * The experiment Runner: the library's session-level public API.
 *
 * A Runner is a configured experiment session — worker count and
 * progress reporting — through which callers execute declarative
 * ExperimentPlans (see sim/engine.hh) and convenience sweeps. All
 * benches, the sacsim driver and the examples go through here, so
 * every experiment shares identical methodology.
 *
 *   Runner runner(Runner::Options{.jobs = 4});
 *   ExperimentPlan plan;
 *   plan.addOrgSweep(findBenchmark("CFD"), cfg);
 *   for (const RunRecord &rec : runner.run(plan))
 *       std::cout << rec.label << ": " << rec.result.cycles << "\n";
 *
 * Results come back in plan order and are bit-identical for any
 * worker count (each job is seeded independently); only the wall-time
 * fields vary between runs.
 */

#ifndef SAC_SIM_RUNNER_HH
#define SAC_SIM_RUNNER_HH

#include <string>
#include <vector>

#include "common/config.hh"
#include "llc/organization.hh"
#include "sim/engine.hh"
#include "sim/plan.hh"
#include "sim/system.hh"
#include "workload/profile.hh"

namespace sac {

/** Runs complete experiments, serially or on a worker pool. */
class Runner
{
  public:
    struct Options
    {
        /** Concurrent simulation jobs; 0 = hardware_concurrency(). */
        unsigned jobs = 1;
        /** Optional per-job completion callback (serialized). */
        ProgressFn progress;
    };

    /** A serial session (jobs = 1, no progress reporting). */
    Runner() = default;

    /** A session with @p jobs workers (0 = hardware_concurrency). */
    explicit Runner(unsigned jobs) { options_.jobs = jobs; }

    explicit Runner(Options options) : options_(std::move(options)) {}

    /** Replaces the progress callback. */
    void onProgress(ProgressFn fn) { options_.progress = std::move(fn); }

    /**
     * Attaches a delivery sink for subsequent run() calls
     * (non-owning; serialized, plan-order delivery — see
     * ResultSink in sim/engine.hh).
     */
    void addSink(ResultSink &sink) { sinks_.push_back(&sink); }

    /**
     * Attaches a persistent result cache for subsequent run() calls
     * (non-owning, nullptr detaches). Cache-eligible jobs already
     * present are served from it; fresh ok records populate it.
     */
    void setCache(JobCache *cache) { cache_ = cache; }

    unsigned jobs() const { return options_.jobs; }

    /**
     * Executes @p plan on the session's worker pool; one record per
     * job, in plan order. When @p telemetry is non-null it receives
     * the run's job-level engine telemetry (wall time, queue wait,
     * worker utilization).
     */
    std::vector<RunRecord> run(const ExperimentPlan &plan,
                               EngineTelemetry *telemetry = nullptr) const;

    /**
     * Runs @p profile (full-scale Table 4 sizes) on @p cfg under
     * @p kind on the calling thread. The data set is scaled by the
     * config's LLC ratio to the paper machine so data:capacity
     * ratios are preserved. Pass @p telemetry to get a timeline back
     * in the RunResult.
     */
    RunResult runOne(const WorkloadProfile &profile, const GpuConfig &cfg,
                     OrgKind kind, std::uint64_t seed = 1,
                     const telemetry::Options &telemetry = {}) const;

    /**
     * Sweeps all five organizations (paper presentation order) and
     * returns results in that order; each RunResult carries its
     * organization name.
     */
    std::vector<RunResult> runOrganizations(const WorkloadProfile &profile,
                                            const GpuConfig &cfg,
                                            std::uint64_t seed = 1) const;

    /** Data-scale divisor matching @p cfg (paper LLC / cfg LLC). */
    static double dataScale(const GpuConfig &cfg);

  private:
    Options options_;
    std::vector<ResultSink *> sinks_;
    JobCache *cache_ = nullptr;
};

/** Speedup of @p result over @p baseline (cycles ratio). */
double speedup(const RunResult &baseline, const RunResult &result);

/** Harmonic mean of speedups (the paper's average). */
double harmonicMean(const std::vector<double> &values);

} // namespace sac

#endif // SAC_SIM_RUNNER_HH
