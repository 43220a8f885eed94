/**
 * @file
 * The parallel experiment engine and its streaming delivery API.
 *
 * An ExperimentPlan (sim/plan.hh) is a declarative list of
 * independent simulation jobs. The ExperimentEngine executes a plan
 * on a pool of workers that claim jobs from one shared cursor, and
 * *streams* one RunRecord per job, in plan order, to any number of
 * attached ResultSinks — the result-cache populator, sacsim's
 * progress lines and the sacsimd wire protocol are all sinks on this
 * one delivery path. run() also returns the records in plan order,
 * which is what sacsim --json serializes. It is the library's one
 * entry point: sacsim, sacsimd, the benches and the examples all
 * drive it directly.
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
 * count. Sink delivery is serialized and happens in plan order (a
 * record is held until every earlier record has been delivered), so
 * the delivery sequence is deterministic for any worker count too.
 *
 * Fault tolerance: each job runs isolated. A job that throws — bad
 * configuration, trace validation failure, watchdog deadline,
 * livelock cap, simulator panic — becomes a RunRecord whose
 * RunResult carries a non-ok status and the error text as its
 * diagnostic; every other job's results are unaffected and run()
 * always delivers a record per job. A job runs once: a failure is
 * reported, never retried.
 *
 * Memoization and resume: attach a JobCache (setCache) and the engine
 * consults it before scheduling work — a job whose content hash
 * (sim/plan.hh, canonicalJobKey) is already cached is served from
 * the cache byte-identically instead of re-simulated, and freshly
 * simulated ok records are offered back for persistence as they are
 * delivered. Rerunning an interrupted plan against the same cache is
 * how a sweep resumes: only the jobs without a stored ok record
 * simulate. Jobs with telemetry or an injected fault bypass the cache
 * (see cacheEligible), so they re-simulate on every run.
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

/** End-of-plan payload: fired exactly once per run(). */
struct EngineDone
{
    std::size_t total = 0;
    const EngineTelemetry &telemetry;
};

using ProgressFn = std::function<void(const EngineProgress &)>;

/**
 * A consumer on the engine's delivery path. onRecord fires once per
 * job, serialized and in plan order regardless of worker count or
 * completion order; onDone fires once after the last record. Calls
 * arrive on worker threads — a sink that blocks delays delivery of
 * later records, never their computation.
 */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;

    /** One delivered record. EngineProgress::record.source says
     *  whether it was simulated or served from cache. */
    virtual void onRecord(const EngineProgress &event) = 0;

    /** The plan is complete; telemetry totals are final. */
    virtual void onDone(const EngineDone &done) { (void)done; }
};

/**
 * Engine-side contract for a persistent result cache, keyed on the
 * job's content hash (sim/plan.hh). The engine consults lookup()
 * before scheduling a cache-eligible job and offers every freshly
 * simulated ok record to store(). Implementations must be safe to
 * call from worker threads; sac::service::ResultCache is the
 * content-addressed on-disk implementation.
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
 * content hash) and no injected fault (failures are not
 * content-determined). Watchdog limits do not participate — a cached
 * ok record is served even if the job also carries deadlines.
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
     * Registers a progress callback: a convenience sink that only
     * wants the onRecord stream. Same delivery guarantees as
     * ResultSink — serialized, plan order.
     */
    void onProgress(ProgressFn fn) { progress_ = std::move(fn); }

    /**
     * Attaches a delivery sink (non-owning; must outlive run()).
     * Sinks fire in attachment order, after the internal cache
     * populator.
     */
    void addSink(ResultSink &sink) { sinks_.push_back(&sink); }

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
     * token at the run loop's watchdog poll points and finish as
     * timed_out too. Cache hits still serve (they cost no
     * simulation), records already delivered are untouched,
     * and onDone still fires — a cancelled sweep completes, it just
     * stops computing.
     */
    void setCancelToken(const CancelToken *token) { cancel_ = token; }

    /**
     * Detaches every sink and the progress callback (the cache and
     * cancel token stay). For owners that reuse one engine across
     * plans with per-plan sinks, e.g. the sacsimd session loop.
     */
    void clearSinks()
    {
        sinks_.clear();
        progress_ = nullptr;
    }

    /**
     * Executes every job, streaming records to the attached sinks in
     * plan order, and returns the records in plan order too. Jobs
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
     * observed at the run's watchdog poll points (SimTimeoutError).
     */
    static RunRecord runJob(const ExperimentJob &job, std::size_t index = 0,
                            const CancelToken *cancel = nullptr);

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
    std::vector<ResultSink *> sinks_;
    JobCache *cache_ = nullptr;
    const CancelToken *cancel_ = nullptr;
};

} // namespace sac

#endif // SAC_SIM_ENGINE_HH
