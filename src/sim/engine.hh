/**
 * @file
 * The parallel experiment engine and its streaming delivery hook.
 *
 * An ExperimentPlan (sim/plan.hh) is a declarative list of
 * independent simulation jobs. The ExperimentEngine executes a plan
 * on a pool of workers that claim jobs from one shared cursor, and
 * *streams* one RunRecord per job, in plan order, to its one
 * onProgress callback — sacsim's progress lines and the sacsimd wire
 * protocol are both that callback. run() also returns the records in
 * plan order, which is what sacsim --json serializes and what the
 * daemon's done event counts. It is the library's one entry point:
 * sacsim, sacsimd, the figure suite (bench/figures) and the examples
 * all drive it directly.
 *
 *   ExperimentPlan plan;
 *   plan.addOrgSweep(findBenchmark("CFD"), cfg);
 *   for (const RunRecord &rec : ExperimentEngine(0).run(plan))
 *       std::cout << rec.label << ": " << rec.result.cycles << "\n";
 *
 * Determinism: a job's measurements depend only on its own
 * (profile, config, org, seed) tuple — every job constructs a private
 * trace generator and System from its explicit seed, so results are
 * bit-identical to serial execution and independent of the thread
 * count. Delivery is serialized and happens in plan order (a record is
 * held until every earlier record has been delivered), so the
 * delivery sequence is deterministic for any worker count too.
 *
 * Fault tolerance: each job runs isolated. A job that throws — bad
 * configuration, watchdog deadline, livelock cap, simulator panic —
 * becomes a RunRecord whose RunResult carries a non-ok status and the
 * error text as its diagnostic; every other job's results are
 * unaffected and run() always delivers a record per job. A job runs
 * once: a failure is reported, never retried.
 *
 * Memoization and resume: attach a JobCache (setCache) and the engine
 * consults it before scheduling work — a job whose content hash
 * (sim/plan.hh, canonicalJobKey) is already cached is served from
 * the cache byte-identically instead of re-simulated, and freshly
 * simulated ok records are stored as they are delivered, before the
 * callback sees them. Rerunning an interrupted plan against the same cache is
 * how a sweep resumes: only the jobs without a stored ok record
 * simulate. Jobs with telemetry bypass the cache (see cacheEligible),
 * so they re-simulate on every run.
 */

#ifndef SAC_SIM_ENGINE_HH
#define SAC_SIM_ENGINE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/system.hh"

namespace sac {

class CancelToken;
class ExperimentPlan;
struct ExperimentJob;

/** Where a delivered record came from in this run. */
enum class RecordSource : std::uint8_t
{
    Simulated, //!< executed by this run's worker pool
    Cache,     //!< served from an attached JobCache
};

const char *toString(RecordSource source);

/** Parses toString(RecordSource) output; throws ValidationError else. */
RecordSource recordSourceFromName(const std::string &name);

/** Outcome of one job: the measurements plus engine bookkeeping. */
struct RunRecord
{
    /** Index into the plan that produced this record. */
    std::size_t jobIndex = 0;
    std::string label;
    std::string benchmark;
    std::uint64_t seed = 1;
    RunResult result;
    /** Wall-clock time this job took on its worker, milliseconds. */
    double wallMs = 0.0;
    /** Time the job sat queued before a worker picked it up, ms. */
    double queueMs = 0.0;
    /** Worker that executed the job (0 is the calling thread). */
    unsigned worker = 0;
    /**
     * Provenance of this record in the run that delivered it.
     * Volatile like the wall-clock fields: omitted from canonical
     * JSON so cached and fresh documents stay byte-identical
     * (result_io::WriteOptions{.timing = true} keeps it).
     */
    RecordSource source = RecordSource::Simulated;
};

/** Speedup of @p result over @p baseline (cycles ratio). */
double speedup(const RunResult &baseline, const RunResult &result);

/** Harmonic mean of speedups (the paper's average). */
double harmonicMean(const std::vector<double> &values);

/**
 * Job-level engine telemetry for one run(): how long the plan took,
 * how busy the workers were and how the work spread across them.
 * Wall-clock only — nothing here feeds back into simulation results.
 */
struct EngineTelemetry
{
    unsigned workers = 0;
    /** run() entry to last job completion, milliseconds. */
    double wallMs = 0.0;
    /** Sum of per-job wall times (total compute demand), ms. */
    double busyMs = 0.0;
    /** Busy time per worker, ms; size == workers. */
    std::vector<double> workerBusyMs;
    /** Jobs served from the attached JobCache. */
    std::size_t cacheHits = 0;
    /** Cache-eligible jobs the cache could not serve. */
    std::size_t cacheMisses = 0;

    /** busyMs / (workers * wallMs): 1.0 = perfectly packed pool. */
    double utilization() const
    {
        return workers && wallMs > 0.0
                   ? busyMs / (static_cast<double>(workers) * wallMs)
                   : 0.0;
    }
};

/** Delivery payload: one record, with plan-order progress counts. */
struct EngineProgress
{
    /** Jobs delivered so far (including this one) and plan size. */
    std::size_t completed = 0;
    std::size_t total = 0;
    /** The job this record answers and the record itself. */
    const ExperimentJob &job;
    const RunRecord &record;
};

using ProgressFn = std::function<void(const EngineProgress &)>;

/** Inspector for a finished job's System: (plan index, system). */
using SystemFn = std::function<void(std::size_t, const System &)>;

/**
 * Engine-side contract for a persistent result cache, keyed on the
 * job's content hash (sim/plan.hh). The engine consults lookup()
 * before scheduling a cache-eligible job and offers every freshly
 * simulated ok record to store(). Implementations must be safe to
 * call from worker threads; sac::service::ResultCache is the
 * content-addressed on-disk implementation, and the figure suite
 * keeps an in-memory one (bench/common.cc).
 */
class JobCache
{
  public:
    virtual ~JobCache() = default;

    /** The cached record for @p job, or nullopt on a miss. */
    virtual std::optional<RunRecord> lookup(const ExperimentJob &job) = 0;

    /** Offers a freshly simulated ok record for persistence. */
    virtual void store(const ExperimentJob &job,
                       const RunRecord &record) = 0;
};

/**
 * True when @p job may be served from / populate a JobCache: no
 * telemetry (a timeline changes the serialized record but not the
 * content hash) and a config that validates (the content hash skips
 * knobs the job's organization never reads, which validation still
 * checks). Watchdog limits do not participate — a cached ok
 * record is served even if the job also carries deadlines, and only
 * ok records are ever stored.
 */
bool cacheEligible(const ExperimentJob &job);

/**
 * Thread pool for experiment plans.
 *
 * Each worker claims the next unstarted job, in plan order, from one
 * shared atomic cursor, so long sweeps balance even when job costs
 * are skewed (a full-input SAC run costs ~10x a scaled-down
 * baseline): a worker takes a new job the moment it finishes one.
 * Jobs never re-queue, so the cursor is the whole queue.
 */
class ExperimentEngine
{
  public:
    /**
     * @param threads worker count; 0 picks hardware_concurrency().
     * A plan smaller than the worker count uses fewer workers. Worker
     * 0 is the calling thread, so a 1-thread engine runs everything
     * inline and starts no thread.
     */
    explicit ExperimentEngine(unsigned threads = 0);

    /**
     * Registers the delivery callback. It fires once per job,
     * serialized and in plan order regardless of worker count or
     * completion order; EngineProgress::record.source says whether
     * the record was simulated or served from cache, and a fresh ok
     * record of a cache-eligible job is already stored in the
     * attached cache when it fires. Calls arrive on worker threads:
     * a callback that blocks delays delivery of later records, never
     * their computation. run() returns after the last call.
     */
    void onProgress(ProgressFn fn) { progress_ = std::move(fn); }

    /**
     * Registers an inspector for the System of every job this engine
     * simulates, e.g. to dump its full counter tree (sacsim --stats).
     * fn(planIndex, system) runs on the worker thread once
     * System::run returns, before the System is destroyed, so calls
     * for different jobs may overlap. It never fires for a cache hit
     * (no System exists) or for a job whose run threw; if it throws,
     * that job is recorded as failed.
     */
    void onSystem(SystemFn fn) { onSystem_ = std::move(fn); }

    /**
     * Attaches a persistent result cache (non-owning, may be
     * nullptr). Cache-eligible jobs already present are served from
     * it instead of simulated; fresh ok records populate it.
     */
    void setCache(JobCache *cache) { cache_ = cache; }

    /**
     * Attaches a cooperative cancellation token (non-owning, may be
     * nullptr) observed by every subsequent run(): jobs not yet
     * started when the token cancels are delivered as timed_out
     * records without simulating, and in-flight jobs observe the
     * token in the run loop's control step and finish as
     * timed_out too. Cache hits still serve (they cost no
     * simulation), records already delivered are untouched,
     * and every job is still delivered — a cancelled sweep completes,
     * it just stops computing.
     */
    void setCancelToken(const CancelToken *token) { cancel_ = token; }

    /**
     * Executes every job, streaming records to the onProgress
     * callback in plan order, and returns the records in plan order
     * too. Jobs
     * are isolated: a throwing job yields a record with a non-ok
     * RunResult::status and the error text in diagnostic; the sweep
     * always completes and the other jobs' results are untouched.
     * When @p telemetry is non-null it is filled with the run's
     * job-level engine telemetry (executed jobs only; cached records
     * don't count as this run's work).
     */
    std::vector<RunRecord> run(const ExperimentPlan &plan,
                               EngineTelemetry *telemetry = nullptr) const;

    /**
     * Runs a single job on the calling thread. Unlike run(), this
     * propagates exceptions — it is the raw building block the
     * engine's isolation layer wraps. @p cancel, when non-null, is
     * observed in the run loop's control step (SimTimeoutError).
     * @p onSystem, when set, is called with (index, system) once
     * System::run returns.
     */
    static RunRecord runJob(const ExperimentJob &job, std::size_t index = 0,
                            const CancelToken *cancel = nullptr,
                            const SystemFn &onSystem = {});

    /**
     * Process-wide count of System::run invocations made through the
     * engine (direct runJob calls included). The memoization tests
     * assert a fully cached sweep leaves this counter untouched.
     */
    static std::uint64_t simulatedSystemRuns();

    unsigned threads() const { return threads_; }

  private:
    unsigned threads_;
    ProgressFn progress_;
    SystemFn onSystem_;
    JobCache *cache_ = nullptr;
    const CancelToken *cancel_ = nullptr;
};

} // namespace sac

#endif // SAC_SIM_ENGINE_HH
