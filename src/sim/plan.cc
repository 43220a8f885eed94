#include "sim/plan.hh"

#include <cstdio>
#include <type_traits>
#include <utility>

#include "common/log.hh"
#include "workload/suite.hh"

namespace sac {

const char *const planSchemaVersion = "sac.plan.v3";

const std::uint64_t canaryDigest = 0xa5f60ecacf49b943ULL;

double
dataScale(const GpuConfig &cfg)
{
    const double paper_llc = 16.0 * 1024.0 * 1024.0;
    return paper_llc / static_cast<double>(cfg.llcBytesTotal());
}

std::vector<KernelDescriptor>
kernelsFor(const WorkloadProfile &profile, int count, int stream)
{
    if (count <= 0)
        count = profile.numKernels;
    std::vector<KernelDescriptor> kernels;
    kernels.reserve(static_cast<std::size_t>(count));
    for (int k = 0; k < count; ++k) {
        KernelDescriptor d;
        d.index = k;
        d.name = profile.name + "-k" + std::to_string(k);
        d.accessesPerWarp = profile.phase(k).accessesPerWarp;
        d.stream = stream;
        kernels.push_back(d);
    }
    return kernels;
}

namespace {

/**
 * Canonical-key serializer: "name=value;" pairs in a frozen order.
 * Doubles print as %.17g so the text round-trips to the exact bits —
 * equal keys mean bit-equal inputs, not merely close ones.
 */
class KeyWriter
{
  public:
    void field(const char *name, const std::string &v)
    {
        out_ += name;
        out_ += '=';
        out_ += v;
        out_ += ';';
    }
    void field(const char *name, const char *v) { field(name, std::string(v)); }
    void field(const char *name, std::uint64_t v)
    {
        field(name, std::to_string(v));
    }
    void field(const char *name, int v) { field(name, std::to_string(v)); }
    void field(const char *name, unsigned v)
    {
        field(name, std::to_string(v));
    }
    void field(const char *name, double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        field(name, std::string(buf));
    }

    const std::string &str() const { return out_; }

  private:
    std::string out_;
};

void
writeConfig(KeyWriter &w, const GpuConfig &cfg)
{
    w.field("numChips", cfg.numChips);
    w.field("clustersPerChip", cfg.clustersPerChip);
    w.field("warpsPerCluster", cfg.warpsPerCluster);
    w.field("slicesPerChip", cfg.slicesPerChip);
    w.field("channelsPerChip", cfg.channelsPerChip);
    w.field("lineBytes", cfg.lineBytes);
    w.field("sectorsPerLine", cfg.sectorsPerLine);
    w.field("llcBytesPerChip", cfg.llcBytesPerChip);
    w.field("llcWays", cfg.llcWays);
    w.field("l1BytesPerCluster", cfg.l1BytesPerCluster);
    w.field("l1Ways", cfg.l1Ways);
    w.field("pageBytes", cfg.pageBytes);
    w.field("xbarPortBw", cfg.xbarPortBw);
    w.field("sliceBw", cfg.sliceBw);
    w.field("dramChannelBw", cfg.dramChannelBw);
    w.field("interChipBw", cfg.interChipBw);
    w.field("l1Latency", cfg.l1Latency);
    w.field("xbarLatency", cfg.xbarLatency);
    w.field("dramLatency", cfg.dramLatency);
    w.field("interChipLatency", cfg.interChipLatency);
    w.field("requestBytes", cfg.requestBytes);
    w.field("coherence", static_cast<int>(cfg.coherence));
    w.field("clusterIssueWidth", cfg.clusterIssueWidth);
    w.field("warpMaxOutstanding", cfg.warpMaxOutstanding);
    w.field("clusterMshrs", cfg.clusterMshrs);
    w.field("sliceMshrs", cfg.sliceMshrs);
    w.field("memQueueDepth", cfg.memQueueDepth);
    w.field("occupancyInterval", cfg.occupancyInterval);
    w.field("sac.profileWindow", cfg.sac.profileWindow);
    w.field("sac.profileMinRequests", cfg.sac.profileMinRequests);
    w.field("sac.theta", cfg.sac.theta);
    w.field("sac.crdSets", cfg.sac.crdSets);
    w.field("sac.crdWays", cfg.sac.crdWays);
    w.field("sac.drainLatency", cfg.sac.drainLatency);
    w.field("sac.reprofileInterval", cfg.sac.reprofileInterval);
    w.field("dyn.epoch", cfg.dynamicLlc.epoch);
    w.field("dyn.step", cfg.dynamicLlc.step);
    w.field("dyn.minWays", cfg.dynamicLlc.minWays);
    // cfg.seed is deliberately absent: runJob overwrites it with the
    // job seed, which the key already carries.
}

void
writeProfile(KeyWriter &w, const WorkloadProfile &p,
             const std::string &prefix = "")
{
    const auto name = [&prefix](const char *f) { return prefix + f; };
    w.field(name("name").c_str(), p.name);
    w.field(name("smSidePreferred").c_str(), p.smSidePreferred ? 1 : 0);
    w.field(name("ctas").c_str(), p.ctas);
    w.field(name("footprintMB").c_str(), p.footprintMB);
    w.field(name("trueSharedMB").c_str(), p.trueSharedMB);
    w.field(name("falseSharedMB").c_str(), p.falseSharedMB);
    w.field(name("numKernels").c_str(), p.numKernels);
    w.field(name("numPhases").c_str(),
            static_cast<std::uint64_t>(p.phases.size()));
    for (std::size_t i = 0; i < p.phases.size(); ++i) {
        const KernelPhase &ph = p.phases[i];
        const std::string pre = prefix + "phase" + std::to_string(i) + ".";
        w.field((pre + "trueFrac").c_str(), ph.trueFrac);
        w.field((pre + "falseFrac").c_str(), ph.falseFrac);
        w.field((pre + "writeFrac").c_str(), ph.writeFrac);
        w.field((pre + "trueHotFrac").c_str(), ph.trueHotFrac);
        w.field((pre + "trueHotMB").c_str(), ph.trueHotMB);
        w.field((pre + "falseHotFrac").c_str(), ph.falseHotFrac);
        w.field((pre + "falseHotMB").c_str(), ph.falseHotMB);
        w.field((pre + "privHotFrac").c_str(), ph.privHotFrac);
        w.field((pre + "privHotMB").c_str(), ph.privHotMB);
        w.field((pre + "rereadFrac").c_str(), ph.rereadFrac);
        w.field((pre + "computeGap").c_str(), ph.computeGap);
        w.field((pre + "accessesPerWarp").c_str(), ph.accessesPerWarp);
        w.field((pre + "trueRegionFrac").c_str(), ph.trueRegionFrac);
    }
}

constexpr std::uint64_t fnvOffset = 14695981039346656037ull;
constexpr std::uint64_t fnvPrime = 1099511628211ull;

std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t len)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= fnvPrime;
    }
    return h;
}

} // namespace

std::string
canonicalJobKey(const ExperimentJob &job)
{
    KeyWriter w;
    char model[20];
    std::snprintf(model, sizeof(model), "%016llx",
                  static_cast<unsigned long long>(canaryDigest));
    w.field("schema", planSchemaVersion);
    w.field("model", model);
    w.field("org", toString(job.org));
    w.field("seed", job.seed);
    writeConfig(w, job.config);
    writeProfile(w, job.profile);
    // Scenario section: appended only when the job actually has one,
    // so every pre-scenario key (and cached result) is byte-unchanged.
    if (job.hasScenario()) {
        w.field("scenario.numStreams",
                static_cast<std::uint64_t>(job.scenario.streams.size()));
        for (std::size_t i = 0; i < job.scenario.streams.size(); ++i) {
            const StreamSpec &s = job.scenario.streams[i];
            const std::string pre =
                "scenario.stream" + std::to_string(i) + ".";
            w.field((pre + "launchCycle").c_str(),
                    static_cast<std::uint64_t>(s.launchCycle));
            w.field((pre + "clusterShare").c_str(), s.clusterShare);
            w.field((pre + "numKernels").c_str(), s.numKernels);
            writeProfile(w, s.profile, pre);
        }
    }
    return w.str();
}

std::uint64_t
contentHash(const ExperimentJob &job)
{
    return contentHashOfKey(canonicalJobKey(job));
}

std::uint64_t
contentHashOfKey(const std::string &key)
{
    return fnv1a(fnvOffset, key.data(), key.size());
}

const std::vector<OrgKind> &
ExperimentPlan::allOrganizations()
{
    static const std::vector<OrgKind> orgs = {
        OrgKind::MemorySide, OrgKind::SmSide, OrgKind::StaticLlc,
        OrgKind::DynamicLlc, OrgKind::Sac};
    return orgs;
}

ExperimentPlan &
ExperimentPlan::add(ExperimentJob job)
{
    if (job.label.empty())
        job.label = job.benchmarkName() + "/" + toString(job.org);
    if (!job.telemetry.enabled())
        job.telemetry = telemetryDefault_;
    if (!job.limits.any())
        job.limits = limitsDefault_;
    jobs_.push_back(std::move(job));
    return *this;
}

ExperimentPlan &
ExperimentPlan::add(const WorkloadProfile &profile, const GpuConfig &cfg,
                    OrgKind org, std::uint64_t seed, std::string label)
{
    ExperimentJob job;
    job.profile = profile;
    job.config = cfg;
    job.org = org;
    job.seed = seed;
    job.label = std::move(label);
    return add(std::move(job));
}

ExperimentPlan &
ExperimentPlan::addOrgSweep(const WorkloadProfile &profile,
                            const GpuConfig &cfg,
                            const std::vector<OrgKind> &orgs,
                            std::uint64_t seed)
{
    for (const auto org : orgs)
        add(profile, cfg, org, seed);
    return *this;
}

ExperimentPlan &
ExperimentPlan::enableTelemetry(const telemetry::Options &opts)
{
    telemetryDefault_ = opts;
    for (auto &job : jobs_) {
        if (!job.telemetry.enabled())
            job.telemetry = opts;
    }
    return *this;
}

ExperimentPlan &
ExperimentPlan::setLimits(const RunLimits &limits)
{
    limitsDefault_ = limits;
    for (auto &job : jobs_) {
        if (!job.limits.any())
            job.limits = limits;
    }
    return *this;
}

namespace {

/**
 * @p lookup(@p value), a name lookup whose ValidationError names the
 * value, with @p field put in front of that error.
 */
template <typename Lookup>
auto
naming(const std::string &field, Lookup lookup, const std::string &value)
{
    try {
        return lookup(value);
    } catch (const ValidationError &e) {
        invalid(field, e.what());
    }
}

/** "all" or a comma list of organization names, e.g. "mem,sac". */
std::vector<OrgKind>
orgList(const std::string &spec, const std::string &field)
{
    if (spec == "all")
        return ExperimentPlan::allOrganizations();
    std::vector<OrgKind> kinds;
    std::size_t start = 0;
    for (;;) {
        const std::size_t comma = spec.find(',', start);
        const std::string item = spec.substr(start, comma - start);
        if (item.empty())
            invalid(field, "empty entry in organization list '", spec, "'");
        kinds.push_back(naming(field, orgKindFromName, item));
        if (comma == std::string::npos)
            return kinds;
        start = comma + 1;
    }
}

/**
 * @p value when it lies in [@p lo, @p hi], else a ValidationError
 * naming @p field. NaN lies nowhere, and neither does inf here: the
 * front ends read numbers saturating (a JSON 1e999 arrives as inf, a
 * 30-digit integer as 2^64-1, and "inf" is a valid double flag).
 */
template <typename T>
T
bounded(const std::string &field, T value, std::type_identity_t<T> lo,
        std::type_identity_t<T> hi)
{
    if (!(value >= lo && value <= hi))
        invalid(field, "must be between ", lo, " and ", hi, ", got ", value);
    return value;
}

} // namespace

void
addJobs(ExperimentPlan &plan, const JobSpec &spec, const SpecFieldNames &names)
{
    const auto name = [&names](const char *key) {
        return names ? names(key) : std::string(key);
    };

    if (spec.benchmark && spec.scenario)
        invalid(name("benchmark"), "cannot be combined with a scenario");
    if (!spec.benchmark && !spec.scenario)
        invalid("job spec", "missing ", name("benchmark"), " (or a scenario)");
    if (spec.scenario && (spec.inputScale || spec.apw)) {
        invalid(name(spec.inputScale ? "inputScale" : "apw"),
                "does not apply to a scenario; each stream sets its own");
    }

    // GpuConfig::scaled divides the paper machine's 32 clusters and 16
    // slices per chip by the scale, so it must divide 16.
    if (spec.scale == 0 || 16 % spec.scale != 0)
        invalid(name("scale"), "must be 1, 2, 4, 8 or 16, got ", spec.scale);
    GpuConfig cfg = GpuConfig::scaled(static_cast<int>(spec.scale));
    cfg.seed = spec.seed;
    if (spec.coherence != "sw" && spec.coherence != "hw")
        invalid(name("coherence"), "must be sw or hw, got ", spec.coherence);
    cfg.coherence = spec.coherence == "hw" ? CoherenceKind::Hardware
                                           : CoherenceKind::Software;
    if (spec.sectors != 1 && spec.sectors != 2 && spec.sectors != 4)
        invalid(name("sectors"), "must be 1, 2 or 4, got ", spec.sectors);
    cfg.sectorsPerLine = static_cast<unsigned>(spec.sectors);
    if (bounded(name("interChipBw"), spec.interChipBw, 0.0, 1e9) > 0.0)
        cfg.interChipBw = spec.interChipBw;
    cfg.validate();

    ExperimentJob job;
    job.config = cfg;
    job.seed = spec.seed;
    if (spec.scenario) {
        job.scenario = *spec.scenario;
    } else {
        job.profile =
            naming(name("benchmark"), findBenchmark, *spec.benchmark);
        if (spec.inputScale) {
            const double factor =
                bounded(name("inputScale"), *spec.inputScale, 1e-6, 1024.0);
            job.profile = job.profile.withInputScale(factor);
        }
        if (spec.apw && bounded(name("apw"), *spec.apw, 0, 1 << 30) > 0) {
            for (auto &phase : job.profile.phases)
                phase.accessesPerWarp = *spec.apw;
        }
    }

    const std::vector<OrgKind> orgs = orgList(spec.org, name("org"));
    if (orgs.size() == 1)
        job.label = spec.label;
    for (const OrgKind org : orgs) {
        job.org = org;
        plan.add(job);
    }
}

} // namespace sac
