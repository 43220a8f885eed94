#include "sim/plan.hh"

#include <cstdio>
#include <utility>

namespace sac {

const char *const planSchemaVersion = "sac.plan.v1";

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
    w.field("llcLatency", cfg.llcLatency);
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
    w.field("schema", planSchemaVersion);
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
    job.fastForward = job.fastForward && fastForwardDefault_;
    if (!job.limits.any())
        job.limits = limitsDefault_;
    if (!job.fault.enabled()) {
        if (const FaultSpec *spec = faults_.find(job.label))
            job.fault = *spec;
    }
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
ExperimentPlan::setFastForward(bool enabled)
{
    fastForwardDefault_ = enabled;
    for (auto &job : jobs_)
        job.fastForward = enabled;
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

ExperimentPlan &
ExperimentPlan::setFaultPlan(FaultPlan faults)
{
    faults_ = std::move(faults);
    for (auto &job : jobs_) {
        if (const FaultSpec *spec = faults_.find(job.label))
            job.fault = *spec;
    }
    return *this;
}

std::uint64_t
ExperimentPlan::contentHash() const
{
    // Chain per-job hashes in plan order, seeded with the schema
    // version so a key-layout bump changes every plan hash too.
    std::uint64_t h = fnv1a(fnvOffset, planSchemaVersion,
                            std::string(planSchemaVersion).size());
    for (const auto &job : jobs_) {
        const std::uint64_t jh = sac::contentHash(job);
        h = fnv1a(h, &jh, sizeof(jh));
    }
    return h;
}

} // namespace sac
