#include "workload/scenario.hh"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/log.hh"
#include "workload/suite.hh"

namespace sac {

const char *const scenarioSchemaVersion = "sac.scenario.v1";

namespace {

/**
 * Range-checked numeric readers, the protocol convention: the JSON
 * layer parses saturating, so every field is rejected here against
 * its documented range with the field name in the error.
 */
std::uint64_t
boundedU64(const json::Value &v, const char *name, std::uint64_t lo,
           std::uint64_t hi)
{
    const std::uint64_t value = v.asU64();
    if (value < lo || value > hi) {
        invalid(name, "must be between ", lo, " and ", hi, ", got ",
                v.text);
    }
    return value;
}

double
boundedDouble(const json::Value &v, const char *name, double lo,
              double hi)
{
    const double value = v.asDouble();
    if (!std::isfinite(value) || value < lo || value > hi) {
        invalid(name, "must be a finite number between ", lo, " and ",
                hi, ", got ", v.text);
    }
    return value;
}

StreamSpec
streamFromValue(const json::Value &spec)
{
    spec.require(json::Value::Type::Object, "scenario stream");
    if (!spec.has("benchmark"))
        invalid("scenario stream", "missing \"benchmark\"");

    StreamSpec stream;
    stream.profile = findBenchmark(spec.at("benchmark").asString());
    if (spec.has("inputScale")) {
        stream.profile = stream.profile.withInputScale(boundedDouble(
            spec.at("inputScale"), "inputScale", 1e-6, 1024.0));
    }
    if (spec.has("apw")) {
        // A scenario stream must make progress on its own clusters,
        // so apw 0 (instantly retired warps) is disallowed here.
        const std::uint64_t apw =
            boundedU64(spec.at("apw"), "apw", 1, 1u << 30);
        for (auto &phase : stream.profile.phases)
            phase.accessesPerWarp = apw;
    }
    if (spec.has("launchCycle")) {
        stream.launchCycle = boundedU64(spec.at("launchCycle"),
                                        "launchCycle", 0,
                                        1000ull * 1000ull * 1000ull * 1000ull);
    }
    if (spec.has("clusterShare")) {
        stream.clusterShare = boundedDouble(spec.at("clusterShare"),
                                            "clusterShare", 1e-6, 1e6);
    }
    if (spec.has("kernels")) {
        stream.numKernels = static_cast<int>(
            boundedU64(spec.at("kernels"), "kernels", 1, 64));
    }
    return stream;
}

} // namespace

std::string
Scenario::name() const
{
    std::string out;
    for (const auto &s : streams) {
        if (!out.empty())
            out += '+';
        out += s.profile.name;
    }
    return out;
}

Scenario
Scenario::scaledData(double divisor) const
{
    Scenario out = *this;
    for (auto &s : out.streams)
        s.profile = s.profile.scaledData(divisor);
    return out;
}

std::vector<ClusterRange>
Scenario::clusterRanges(int clusters_per_chip) const
{
    const auto n = streams.size();
    SAC_ASSERT(n >= 1, "partition needs at least one stream");
    if (static_cast<std::size_t>(clusters_per_chip) < n) {
        invalid("scenario", n, " streams need at least ", n,
                " clusters per chip, have ", clusters_per_chip);
    }
    double total = 0.0;
    for (const auto &s : streams) {
        SAC_ASSERT(s.clusterShare > 0.0, "cluster share must be positive");
        total += s.clusterShare;
    }

    // Largest remainder over the ideal proportional split.
    std::vector<int> counts(n, 0);
    std::vector<double> remainder(n, 0.0);
    int assigned = 0;
    for (std::size_t s = 0; s < n; ++s) {
        const double ideal =
            clusters_per_chip * streams[s].clusterShare / total;
        counts[s] = static_cast<int>(ideal);
        remainder[s] = ideal - counts[s];
        assigned += counts[s];
    }
    while (assigned < clusters_per_chip) {
        std::size_t pick = 0;
        for (std::size_t s = 1; s < n; ++s) {
            if (remainder[s] > remainder[pick])
                pick = s;
        }
        ++counts[pick];
        remainder[pick] = -1.0;
        ++assigned;
    }

    // Min-one floor: lend from the currently largest allocation.
    for (std::size_t s = 0; s < n; ++s) {
        while (counts[s] == 0) {
            std::size_t donor = 0;
            for (std::size_t d = 1; d < n; ++d) {
                if (counts[d] > counts[donor])
                    donor = d;
            }
            SAC_ASSERT(counts[donor] > 1, "no cluster to lend");
            --counts[donor];
            ++counts[s];
        }
    }

    std::vector<ClusterRange> ranges(n);
    std::uint64_t first = 0;
    for (std::size_t s = 0; s < n; ++s) {
        ranges[s].first = first;
        ranges[s].count = static_cast<std::uint64_t>(counts[s]);
        first += ranges[s].count;
    }
    return ranges;
}

Scenario
Scenario::fromProfile(const WorkloadProfile &profile)
{
    Scenario scn;
    scn.streams.push_back(StreamSpec{profile, 0, 1.0, 0});
    return scn;
}

Scenario
scenarioFromStreamsValue(const json::Value &streams)
{
    streams.require(json::Value::Type::Array, "streams");
    if (streams.array.empty())
        invalid("scenario", "\"streams\" is empty");
    if (streams.array.size() > maxScenarioStreams) {
        invalid("scenario", "at most ", maxScenarioStreams,
                " streams per scenario, got ", streams.array.size());
    }
    Scenario scn;
    for (const json::Value &spec : streams.array)
        scn.streams.push_back(streamFromValue(spec));
    return scn;
}

Scenario
scenarioFromJson(const std::string &text)
{
    const json::Value doc = json::parse(text);
    doc.require(json::Value::Type::Object, "scenario document");
    if (!doc.has("schema") ||
        doc.at("schema").asString() != scenarioSchemaVersion) {
        invalid("scenario", "missing or unsupported schema (want \"",
                scenarioSchemaVersion, "\")");
    }
    if (!doc.has("streams"))
        invalid("scenario", "missing \"streams\" array");
    return scenarioFromStreamsValue(doc.at("streams"));
}

Scenario
scenarioFromFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        invalid(path, "cannot open scenario file");
    std::ostringstream text;
    text << in.rdbuf();
    try {
        return scenarioFromJson(text.str());
    } catch (const ValidationError &e) {
        invalid(path, e.what());
    }
}

// --- StreamTraceMux ---------------------------------------------------

StreamTraceMux::StreamTraceMux(const Scenario &scenario,
                               const GpuConfig &cfg, std::uint64_t seed)
{
    SAC_ASSERT(!scenario.streams.empty(), "scenario has no streams");
    const auto ranges = scenario.clusterRanges(cfg.clustersPerChip);
    clusterStream_.assign(static_cast<std::size_t>(cfg.clustersPerChip), 0);
    for (std::size_t s = 0; s < ranges.size(); ++s) {
        for (std::uint64_t c = 0; c < ranges[s].count; ++c)
            clusterStream_[ranges[s].first + c] = static_cast<int>(s);
    }

    for (std::size_t s = 0; s < scenario.streams.size(); ++s) {
        // Stream 0 keeps the bare seed and a zero offset so the
        // one-stream scenario reproduces SharingTraceGen exactly.
        const std::uint64_t mixed =
            seed ^ (s * 0x9E3779B97F4A7C15ull);
        gens_.push_back(std::make_unique<SharingTraceGen>(
            scenario.streams[s].profile, cfg, mixed));
        offsets_.push_back(static_cast<Addr>(s) << 38);
    }
}

int
StreamTraceMux::streamOfCluster(ClusterId cluster) const
{
    return clusterStream_[static_cast<std::size_t>(cluster)];
}

MemAccess
StreamTraceMux::next(ChipId chip, ClusterId cluster, int warp)
{
    const int s = streamOfCluster(cluster);
    MemAccess a = gens_[static_cast<std::size_t>(s)]->next(chip, cluster,
                                                           warp);
    a.lineAddr += offsets_[static_cast<std::size_t>(s)];
    return a;
}

void
StreamTraceMux::beginKernel(int kernel_index)
{
    gens_[0]->beginKernel(kernel_index);
}

void
StreamTraceMux::beginStreamKernel(int stream, int kernel_index)
{
    gens_[static_cast<std::size_t>(stream)]->beginKernel(kernel_index);
}

} // namespace sac
