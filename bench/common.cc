#include "bench/common.hh"

#include <cstdlib>
#include <mutex>
#include <unordered_map>

#include "sim/report.hh"

namespace sac::bench {

namespace {

/**
 * Every ok record this process simulated, keyed by the job's full
 * canonical key. Kept in memory only: nothing to create or clean up,
 * and nothing survives into a run of a changed model.
 */
class MemoryCache final : public JobCache
{
  public:
    std::optional<RunRecord> lookup(const ExperimentJob &job) override
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = records_.find(canonicalJobKey(job));
        if (it == records_.end())
            return std::nullopt;
        return it->second;
    }

    void store(const ExperimentJob &job, const RunRecord &record) override
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        records_.emplace(canonicalJobKey(job), record);
    }

  private:
    std::mutex mutex_;
    std::unordered_map<std::string, RunRecord> records_;
};

/** $SAC_JOBS if set, otherwise 0 (every hardware thread). */
unsigned
benchJobs()
{
    if (const char *env = std::getenv("SAC_JOBS")) {
        const long n = std::strtol(env, nullptr, 10);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    return 0; // engine picks hardware_concurrency()
}

} // namespace

std::vector<RunRecord>
runPlan(const ExperimentPlan &plan)
{
    static MemoryCache cache;
    ExperimentEngine engine(benchJobs());
    engine.setCache(&cache);
    engine.onProgress([](const EngineProgress &p) {
        std::cerr << "  [" << p.completed << "/" << p.total << "] "
                  << p.job.label << "  ("
                  << (p.record.source == RecordSource::Cache
                          ? "cached"
                          : report::num(p.record.wallMs, 0) + " ms")
                  << ")\n";
    });
    auto records = engine.run(plan);
    bool failed = false;
    for (const auto &rec : records) {
        if (rec.result.status != RunStatus::Ok) {
            std::cerr << rec.label << ": " << toString(rec.result.status)
                      << ": " << rec.result.diagnostic << "\n";
            failed = true;
        }
    }
    if (failed)
        std::exit(1);
    return records;
}

std::vector<BenchResults>
runMatrix(const std::vector<WorkloadProfile> &profiles, const GpuConfig &cfg,
          const std::vector<OrgKind> &orgs)
{
    ExperimentPlan plan;
    for (const auto &profile : profiles)
        plan.addOrgSweep(profile, cfg, orgs);

    const auto records = runPlan(plan);

    // Plan order is profiles × orgs, so record i belongs to profile
    // i / orgs.size() — regroup into the per-benchmark shape.
    std::vector<BenchResults> out;
    out.reserve(profiles.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        const std::size_t p = i / orgs.size();
        if (i % orgs.size() == 0) {
            BenchResults res;
            res.profile = plan[i].profile;
            out.push_back(std::move(res));
        }
        out[p].byOrg.emplace(plan[i].org, records[i].result);
    }
    return out;
}

std::map<OrgKind, double>
hmeanSpeedups(const std::vector<BenchResults> &results)
{
    std::map<OrgKind, double> out;
    if (results.empty())
        return out;
    for (const auto &[kind, first] : results.front().byOrg) {
        (void)first;
        std::vector<double> speedups;
        speedups.reserve(results.size());
        for (const auto &r : results)
            speedups.push_back(r.speedupOf(kind));
        out.emplace(kind, harmonicMean(speedups));
    }
    return out;
}

std::vector<WorkloadProfile>
pickBenchmarks(const std::vector<std::string> &names)
{
    std::vector<WorkloadProfile> out;
    out.reserve(names.size());
    for (const auto &name : names)
        out.push_back(findBenchmark(name));
    return out;
}

void
paperCompare(std::ostream &os, const std::string &what,
             const std::string &paper, const std::string &measured)
{
    os << "  " << what << ": paper " << paper << "  |  measured "
       << measured << "\n";
}

} // namespace sac::bench
