#include "sim/engine.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/log.hh"
#include "sim/cancel.hh"
#include "sim/plan.hh"
#include "workload/tracegen.hh"

namespace sac {

namespace {

std::atomic<std::uint64_t> systemRuns{0};

} // namespace

const char *
toString(RecordSource source)
{
    switch (source) {
      case RecordSource::Simulated: return "simulated";
      case RecordSource::Cache: return "cache";
    }
    return "simulated";
}

RecordSource
recordSourceFromName(const std::string &name)
{
    if (name == "simulated")
        return RecordSource::Simulated;
    if (name == "cache")
        return RecordSource::Cache;
    invalid(name, "unknown record source");
}

double
speedup(const RunResult &baseline, const RunResult &result)
{
    SAC_ASSERT(result.cycles > 0, "speedup of an empty run");
    return static_cast<double>(baseline.cycles) /
           static_cast<double>(result.cycles);
}

double
harmonicMean(const std::vector<double> &values)
{
    SAC_ASSERT(!values.empty(), "harmonic mean of nothing");
    double denom = 0.0;
    for (const auto v : values) {
        SAC_ASSERT(v > 0.0, "harmonic mean needs positive values");
        denom += 1.0 / v;
    }
    return static_cast<double>(values.size()) / denom;
}

bool
cacheEligible(const ExperimentJob &job)
{
    if (job.telemetry.enabled())
        return false;
    // The key leaves out the knobs a job's organization never reads,
    // but validate() checks them all: a job that fails validation must
    // fail with a warm cache too, not be served its valid twin's record.
    try {
        job.config.validate();
    } catch (const std::exception &) {
        return false;
    }
    return true;
}

ExperimentEngine::ExperimentEngine(unsigned threads) : threads_(threads) {}

std::uint64_t
ExperimentEngine::simulatedSystemRuns()
{
    return systemRuns.load();
}

RunRecord
ExperimentEngine::runJob(const ExperimentJob &job, std::size_t index,
                         const CancelToken *cancel, const SystemFn &onSystem)
{
    const auto t0 = std::chrono::steady_clock::now();

    GpuConfig cfg = job.config;
    cfg.seed = job.seed;
    cfg.validate();

    // Scenario jobs drive a per-stream trace mux; profile jobs use the
    // bare generator (the one-stream mux degenerates to it).
    const WorkloadProfile scaled = job.profile.scaledData(dataScale(cfg));
    const Scenario scaledScenario =
        job.scenario.scaledData(dataScale(cfg));
    std::unique_ptr<TraceSource> src;
    if (job.hasScenario())
        src = std::make_unique<StreamTraceMux>(scaledScenario, cfg,
                                               job.seed);
    else
        src = std::make_unique<SharingTraceGen>(scaled, cfg, job.seed);
    System system(cfg, job.org, *src);
    system.setFastForward(job.fastForward);
    system.setRunLimits(job.limits);
    system.setCancelToken(cancel);
    if (job.telemetry.enabled())
        system.enableTelemetry(job.telemetry);

    RunRecord rec;
    rec.jobIndex = index;
    rec.label = job.label;
    rec.benchmark = job.benchmarkName();
    rec.seed = job.seed;
    systemRuns.fetch_add(1, std::memory_order_relaxed);
    rec.result = job.hasScenario() ? system.run(scaledScenario)
                                   : system.run(kernelsFor(scaled));
    if (onSystem)
        onSystem(index, system);
    rec.wallMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    return rec;
}

namespace {

/** Record for a job that never produced measurements. */
RunRecord
failedRecord(const ExperimentJob &job, std::size_t index, RunStatus status,
             std::string diagnostic)
{
    RunRecord rec;
    rec.jobIndex = index;
    rec.label = job.label;
    rec.benchmark = job.benchmarkName();
    rec.seed = job.seed;
    rec.result.organization = toString(job.org);
    rec.result.status = status;
    rec.result.diagnostic = std::move(diagnostic);
    return rec;
}

/** Record for a job the cancellation token stopped before it ever
 *  reached a worker. Deterministic text: the reason is whatever the
 *  canceller latched, never host timing. */
RunRecord
cancelledRecord(const ExperimentJob &job, std::size_t index,
                const CancelToken &cancel)
{
    return failedRecord(job, index, RunStatus::TimedOut,
                        "cancelled before start: " + cancel.reason());
}

/**
 * The isolation layer: runs one job once and classifies anything it
 * throws into a RunStatus. Never throws — every outcome is a
 * RunRecord.
 */
RunRecord
runGuarded(const ExperimentJob &job, std::size_t index,
           const CancelToken *cancel, const SystemFn &onSystem)
{
    const auto t0 = std::chrono::steady_clock::now();
    RunRecord rec;
    try {
        return ExperimentEngine::runJob(job, index, cancel, onSystem);
    } catch (const LivelockError &e) {
        rec = failedRecord(job, index, RunStatus::Livelocked, e.what());
    } catch (const SimTimeoutError &e) {
        rec = failedRecord(job, index, RunStatus::TimedOut, e.what());
    } catch (const std::exception &e) {
        rec = failedRecord(job, index, RunStatus::Failed, e.what());
    } catch (...) {
        rec = failedRecord(job, index, RunStatus::Failed,
                           "unknown exception");
    }
    rec.wallMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    return rec;
}

/**
 * Plan-order delivery: records are held until every earlier record
 * has been delivered, so the callback sequence is deterministic for
 * any worker count. Delivery happens under one mutex, so the cache
 * and the callback never see concurrent or out-of-order records.
 */
class Emitter
{
  public:
    Emitter(const ExperimentPlan &plan, const std::vector<RunRecord> &records,
            JobCache *cache, const ProgressFn &progress)
        : plan_(plan), records_(records), cache_(cache),
          progress_(progress), done_(records.size(), 0)
    {
    }

    /** Marks records_[index] complete and flushes the ready prefix. */
    void
    complete(std::size_t index)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        done_[index] = 1;
        while (next_ < done_.size() && done_[next_]) {
            const ExperimentJob &job = plan_[next_];
            const RunRecord &rec = records_[next_];
            // Durability before observation: a fresh ok record is in
            // the cache before the callback sees it.
            if (cache_ && rec.source == RecordSource::Simulated &&
                rec.result.status == RunStatus::Ok && cacheEligible(job)) {
                cache_->store(job, rec);
            }
            if (progress_)
                progress_(EngineProgress{next_ + 1, done_.size(), job, rec});
            ++next_;
        }
    }

    void
    finish() const
    {
        SAC_ASSERT(next_ == done_.size(),
                   "engine finished with undelivered records");
    }

  private:
    const ExperimentPlan &plan_;
    const std::vector<RunRecord> &records_;
    JobCache *cache_;
    const ProgressFn &progress_;
    std::vector<char> done_;
    std::size_t next_ = 0;
    std::mutex mutex_;
};

} // namespace

std::vector<RunRecord>
ExperimentEngine::run(const ExperimentPlan &plan,
                      EngineTelemetry *telemetry) const
{
    const std::size_t n = plan.size();
    std::vector<RunRecord> out(n);

    EngineTelemetry local;
    EngineTelemetry &tm = telemetry ? *telemetry : local;
    tm = EngineTelemetry{};

    // Cache probe: a hit is served as-cached (byte-identical to the
    // run that populated it) under this plan's index and label. This
    // is also how an interrupted sweep resumes: its stored ok records
    // hit, everything else simulates.
    std::vector<char> settled(n, 0);
    if (cache_) {
        for (std::size_t i = 0; i < n; ++i) {
            if (!cacheEligible(plan[i]))
                continue;
            if (auto hit = cache_->lookup(plan[i])) {
                out[i] = std::move(*hit);
                out[i].jobIndex = i;
                out[i].label = plan[i].label;
                out[i].source = RecordSource::Cache;
                out[i].wallMs = 0.0;
                out[i].queueMs = 0.0;
                out[i].worker = 0;
                settled[i] = 1;
                ++tm.cacheHits;
            } else {
                ++tm.cacheMisses;
            }
        }
    }

    Emitter emitter(plan, out, cache_, progress_);

    // The jobs left to simulate, in plan order.
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < n; ++i) {
        if (!settled[i])
            pending.push_back(i);
    }

    unsigned workers =
        threads_ ? threads_
                 : std::max(1u, std::thread::hardware_concurrency());
    workers = static_cast<unsigned>(std::min<std::size_t>(
        workers, std::max<std::size_t>(pending.size(), 1)));

    tm.workers = workers;
    tm.workerBusyMs.assign(workers, 0.0);

    using clock_type = std::chrono::steady_clock;
    const auto engine_t0 = clock_type::now();
    const auto ms_since = [engine_t0](clock_type::time_point t) {
        return std::chrono::duration<double, std::milli>(t - engine_t0)
            .count();
    };

    // Settled (cache-hit) records deliver immediately.
    for (std::size_t i = 0; i < n; ++i) {
        if (settled[i])
            emitter.complete(i);
    }

    // Every worker claims the next pending job from one shared
    // cursor. Jobs are never re-queued, so the cursor is the whole
    // queue: no job starts twice and none is left behind.
    std::atomic<std::size_t> cursor{0};
    const auto worker = [&](unsigned w) {
        for (std::size_t k = cursor++; k < pending.size(); k = cursor++) {
            const std::size_t i = pending[k];
            const double queued = ms_since(clock_type::now());
            out[i] = cancel_ && cancel_->cancelled()
                         ? cancelledRecord(plan[i], i, *cancel_)
                         : runGuarded(plan[i], i, cancel_, onSystem_);
            out[i].queueMs = queued;
            out[i].worker = w;
            emitter.complete(i);
        }
    };

    {
        // Worker 0 is the calling thread, so a one-worker run starts
        // no thread at all. The pool joins when it leaves this scope,
        // on an exception too.
        std::vector<std::jthread> pool;
        pool.reserve(workers - 1);
        for (unsigned w = 1; w < workers; ++w)
            pool.emplace_back(worker, w);
        worker(0);
    }

    for (const std::size_t i : pending) {
        tm.busyMs += out[i].wallMs;
        tm.workerBusyMs[out[i].worker] += out[i].wallMs;
    }
    tm.wallMs = ms_since(clock_type::now());
    emitter.finish();
    return out;
}

} // namespace sac
