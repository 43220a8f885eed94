/**
 * @file
 * Experiment plan construction: the pure value types describing WHAT
 * to simulate, split from the ExperimentEngine that decides HOW
 * (sim/engine.hh).
 *
 * An ExperimentPlan is a declarative list of independent simulation
 * jobs — (workload, config, organization, seed) tuples with a display
 * label — plus plan-wide defaults (telemetry, limits).
 * Nothing in here runs anything; a plan is data, and two equal plans
 * are interchangeable.
 *
 * That property is load-bearing: every job has a *stable canonical
 * content hash* over exactly the fields that determine its simulated
 * results (config, workload, seed, organization, schema version and
 * model fingerprint — see canonicalJobKey()). The result cache
 * (service/result_cache.hh) keys on this hash, so it deliberately
 * excludes anything that cannot change measurements: labels,
 * telemetry options, the at-rest jump, watchdog limits. The hash is
 * versioned by planSchemaVersion; bump it whenever the canonical key
 * gains, loses or reorders a field.
 *
 * The front ends describe jobs as JobSpec values (sacsim's flags, one
 * element of a sac.sweep.v1 request); addJobs() is the one reader
 * that turns a spec into jobs, so both accept exactly the same specs.
 */

#ifndef SAC_SIM_PLAN_HH
#define SAC_SIM_PLAN_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hh"
#include "gpu/kernel.hh"
#include "llc/organization.hh"
#include "sim/watchdog.hh"
#include "telemetry/timeline.hh"
#include "workload/profile.hh"
#include "workload/scenario.hh"

namespace sac {

/**
 * Canonical-key schema version. Participates in every content hash,
 * so old cached results can never be confused with results produced
 * under a different key layout.
 */
extern const char *const planSchemaVersion;

/**
 * The model fingerprint: FNV-1a of the model canary's results document
 * (tests/sim/model_canary_test.cc, which fails until this constant
 * matches). Every canonical key carries it, so a change that moves
 * simulated results, and therefore this constant, misses every result
 * cached before it. A change that no canary job reaches is not caught.
 */
extern const std::uint64_t canaryDigest;

/**
 * Data-scale divisor matching @p cfg (paper LLC / cfg LLC): scaled
 * machines run proportionally scaled data sets so data:capacity
 * ratios are preserved.
 */
double dataScale(const GpuConfig &cfg);

/**
 * Kernel sequence implied by a profile's phases: @p count kernels
 * (0 means the profile's own numKernels), tagged with @p stream.
 */
std::vector<KernelDescriptor> kernelsFor(const WorkloadProfile &profile,
                                         int count = 0, int stream = 0);

/** One independent simulation: everything a worker needs to run it. */
struct ExperimentJob
{
    WorkloadProfile profile;
    GpuConfig config;
    OrgKind org = OrgKind::MemorySide;
    /** Per-job RNG seed; fully determines the generated trace. */
    std::uint64_t seed = 1;
    /** Display label ("CFD/sac"); defaulted by ExperimentPlan::add. */
    std::string label;
    /**
     * Timeline/event-trace options for this job's System. Disabled by
     * default; timelines contain only simulated-time data, so enabling
     * them never perturbs the measurements.
     */
    telemetry::Options telemetry;
    /**
     * The run loop's at-rest clock jump for this job's System (see
     * System::setFastForward). On by default; results are
     * bit-identical either way, so turning it off only gives tests
     * the pure per-cycle loop to compare against.
     */
    bool fastForward = true;
    /**
     * Watchdog deadlines for this job (cycle budget, wall-clock
     * budget, livelock cap override). Zeroed = no deadlines beyond
     * the built-in livelock cap.
     */
    RunLimits limits;
    /**
     * Multi-tenant scenario (last member, so existing aggregate
     * initializers stay valid). Empty streams (the default) means the
     * plain run over @ref profile; non-empty streams
     * replace the profile entirely — the engine builds a
     * StreamTraceMux over them and runs System::run(Scenario).
     */
    Scenario scenario;

    /** True when this job runs a scenario instead of @ref profile. */
    bool hasScenario() const { return !scenario.streams.empty(); }

    /** Workload display name: scenario name or profile name. */
    std::string benchmarkName() const
    {
        return hasScenario() ? scenario.name() : profile.name;
    }
};

/**
 * The canonical serialization of everything that determines @p job's
 * simulated results: schema version, model fingerprint, organization,
 * seed, every GpuConfig field and the full workload profile (phases
 * included).
 * Scenario jobs append every stream's spec and profile after the
 * base fields; the scenario section is emitted ONLY when the job has
 * one, so every pre-scenario key — and thus every cached result —
 * stays byte-identical under the same schema version.
 * Field order and formatting are frozen per planSchemaVersion;
 * doubles print with enough digits to round-trip (%.17g), so equal
 * keys mean bit-equal inputs. Human-readable by design — a cache can
 * store it next to the hash for collision audits.
 */
std::string canonicalJobKey(const ExperimentJob &job);

/** FNV-1a 64-bit over canonicalJobKey(job): the result-cache key. */
std::uint64_t contentHash(const ExperimentJob &job);

/**
 * The same FNV-1a 64 over an already-serialized canonical key.
 * contentHash(job) == contentHashOfKey(canonicalJobKey(job)) by
 * construction; cache integrity scans use this to re-derive an
 * entry's expected filename from the key it stores.
 */
std::uint64_t contentHashOfKey(const std::string &key);

/**
 * An ordered list of jobs. Builder methods return *this so plans can
 * be assembled fluently:
 *
 *   ExperimentPlan plan;
 *   plan.addOrgSweep(findBenchmark("CFD"), cfg, allOrganizations());
 */
class ExperimentPlan
{
  public:
    /** The five organizations in the paper's presentation order. */
    static const std::vector<OrgKind> &allOrganizations();

    /** Appends one job; an empty label becomes "<name>/<org>". */
    ExperimentPlan &add(ExperimentJob job);

    /** Convenience overload building the job in place. */
    ExperimentPlan &add(const WorkloadProfile &profile,
                        const GpuConfig &cfg, OrgKind org,
                        std::uint64_t seed = 1, std::string label = "");

    /** One job per organization, in the given order. */
    ExperimentPlan &addOrgSweep(
        const WorkloadProfile &profile, const GpuConfig &cfg,
        const std::vector<OrgKind> &orgs = allOrganizations(),
        std::uint64_t seed = 1);

    /**
     * Applies @p opts to every job already in the plan and to jobs
     * added later (a job whose own options are already enabled keeps
     * them).
     */
    ExperimentPlan &enableTelemetry(const telemetry::Options &opts);

    /**
     * Applies watchdog limits to every job already in the plan whose
     * own limits are unset, and to jobs added later.
     */
    ExperimentPlan &setLimits(const RunLimits &limits);

    const std::vector<ExperimentJob> &jobs() const { return jobs_; }
    std::size_t size() const { return jobs_.size(); }
    bool empty() const { return jobs_.empty(); }
    const ExperimentJob &operator[](std::size_t i) const { return jobs_[i]; }

  private:
    std::vector<ExperimentJob> jobs_;
    telemetry::Options telemetryDefault_;
    RunLimits limitsDefault_;
};

/**
 * One sweep entry as a front end describes it: sacsim fills it from
 * its flags, sacsimd from one element of a sac.sweep.v1 "plan" array.
 * An unset optional takes addJobs()'s default.
 */
struct JobSpec
{
    /** Table 4 name; exactly one of benchmark and scenario is set. */
    std::optional<std::string> benchmark;
    /** Co-resident streams, each naming its own benchmark. */
    std::optional<Scenario> scenario;
    /** "all" (the five organizations) or a comma list of
     *  mem|sm|static|dynamic|sac, e.g. "mem,sac". */
    std::string org = "all";
    std::uint64_t seed = 1;
    /** Topology divisor, 1..64 and a divisor of the topology
     *  (GpuConfig::scaled); 1 = the paper machine. */
    std::uint64_t scale = 4;
    /** Data-set multiplier (Fig. 13 axis), 1e-6..1024; not beside a
     *  scenario, whose streams set their own. */
    std::optional<double> inputScale;
    /** "sw" or "hw". */
    std::string coherence = "sw";
    /** Sectors per line: 1, 2 or 4. */
    std::uint64_t sectors = 1;
    /** Per-chip inter-chip bandwidth, 0..1e9; 0 keeps the config's. */
    double interChipBw = 0.0;
    /** Accesses per warp per kernel, 0..2^30 (0 keeps the profile's);
     *  not beside a scenario. */
    std::optional<std::uint64_t> apw;
    /** Label of the job when the spec names one organization;
     *  otherwise every job keeps its "<name>/<org>" default. */
    std::string label;
};

/**
 * How a front end spells a JobSpec field in its errors, given the
 * field's sac.sweep.v1 key (e.g. sacsim maps "inputScale" to
 * "--input-scale"). Empty means the key itself.
 */
using SpecFieldNames = std::function<std::string(const std::string &key)>;

/**
 * The one job-spec reader: checks every field of @p spec against its
 * bounds, then appends one job per organization to @p plan. Throws
 * ValidationError, with the field as @p names spells it in the
 * context, on anything out of range.
 */
void addJobs(ExperimentPlan &plan, const JobSpec &spec,
             const SpecFieldNames &names = {});

} // namespace sac

#endif // SAC_SIM_PLAN_HH
