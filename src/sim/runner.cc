#include "sim/runner.hh"

#include "common/log.hh"

namespace sac {

std::vector<RunRecord>
Runner::run(const ExperimentPlan &plan, EngineTelemetry *telemetry) const
{
    ExperimentEngine engine(options_.jobs);
    if (options_.progress)
        engine.onProgress(options_.progress);
    for (ResultSink *sink : sinks_)
        engine.addSink(*sink);
    engine.setCache(cache_);
    return engine.run(plan, telemetry);
}

RunResult
Runner::runOne(const WorkloadProfile &profile, const GpuConfig &cfg,
               OrgKind kind, std::uint64_t seed,
               const telemetry::Options &telemetry) const
{
    ExperimentJob job;
    job.profile = profile;
    job.config = cfg;
    job.org = kind;
    job.seed = seed;
    job.telemetry = telemetry;
    return ExperimentEngine::runJob(job).result;
}

std::vector<RunResult>
Runner::runOrganizations(const WorkloadProfile &profile,
                         const GpuConfig &cfg, std::uint64_t seed) const
{
    ExperimentPlan plan;
    plan.addOrgSweep(profile, cfg, ExperimentPlan::allOrganizations(),
                     seed);
    std::vector<RunResult> out;
    out.reserve(plan.size());
    for (auto &rec : run(plan))
        out.push_back(std::move(rec.result));
    return out;
}

double
Runner::dataScale(const GpuConfig &cfg)
{
    return sac::dataScale(cfg);
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

} // namespace sac
