#include "service/protocol.hh"

#include <cmath>

#include "common/config.hh"
#include "common/log.hh"
#include "sim/result_io.hh"
#include "workload/scenario.hh"
#include "workload/suite.hh"

namespace sac::service {

const char *const requestSchema = "sac.sweep.v1";
const char *const responseSchema = "sac.sweep-result.v1";

namespace {

/**
 * Range-checked numeric readers. The JSON layer parses saturating —
 * "1e999" becomes inf, a 30-digit integer becomes 2^64-1 — so the
 * protocol rejects anything outside each field's documented range
 * here, with the field name in the error, instead of letting a
 * nonsense magnitude reach GpuConfig.
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

/** Builds the (config, profile) pair one job spec describes, exactly
 *  the way the sacsim CLI would. */
void
addJobSpec(ExperimentPlan &plan, const json::Value &spec)
{
    const bool has_scenario = spec.has("scenario");
    if (!spec.has("benchmark") && !has_scenario) {
        invalid("sweep request",
                "job spec is missing \"benchmark\" (or \"scenario\")");
    }
    if (spec.has("benchmark") && has_scenario) {
        invalid("sweep request",
                "job spec has both \"benchmark\" and \"scenario\"; "
                "scenario streams name their own benchmarks");
    }

    const int scale =
        spec.has("scale")
            ? static_cast<int>(boundedU64(spec.at("scale"), "scale", 1, 64))
            : 4;
    GpuConfig cfg = GpuConfig::scaled(scale);

    const std::uint64_t seed =
        spec.has("seed") ? spec.at("seed").asU64() : 1;
    cfg.seed = seed;

    if (spec.has("coherence")) {
        const std::string c = spec.at("coherence").asString();
        if (c != "sw" && c != "hw")
            invalid(c, "coherence must be sw or hw");
        cfg.coherence = c == "hw" ? CoherenceKind::Hardware
                                  : CoherenceKind::Software;
    }
    if (spec.has("sectors")) {
        cfg.sectorsPerLine = static_cast<unsigned>(
            boundedU64(spec.at("sectors"), "sectors", 1, 4));
    }
    if (spec.has("interChipBw")) {
        const double bw = boundedDouble(spec.at("interChipBw"),
                                        "interChipBw", 0.0, 1e9);
        if (bw > 0.0)
            cfg.interChipBw = bw;
    }
    cfg.validate();

    const std::string label =
        spec.has("label") ? spec.at("label").asString() : "";
    const std::string org =
        spec.has("org") ? spec.at("org").asString() : "all";

    if (has_scenario) {
        // The streams array reuses the scenario-file shape and its
        // bounds (stream count cap, per-field range checks); the
        // profile-level knobs live inside each stream instead.
        if (spec.has("inputScale") || spec.has("apw")) {
            invalid("sweep request",
                    "\"inputScale\"/\"apw\" belong inside scenario "
                    "streams, not beside \"scenario\"");
        }
        const Scenario scenario =
            scenarioFromStreamsValue(spec.at("scenario"));
        const auto add_one = [&](OrgKind kind, std::string job_label) {
            ExperimentJob job;
            job.scenario = scenario;
            job.config = cfg;
            job.org = kind;
            job.seed = seed;
            job.label = std::move(job_label);
            plan.add(std::move(job));
        };
        if (org == "all") {
            for (const OrgKind kind : ExperimentPlan::allOrganizations())
                add_one(kind, "");
        } else {
            add_one(orgKindFromName(org), label);
        }
        return;
    }

    WorkloadProfile profile =
        findBenchmark(spec.at("benchmark").asString());
    if (spec.has("inputScale")) {
        profile = profile.withInputScale(boundedDouble(
            spec.at("inputScale"), "inputScale", 1e-6, 1024.0));
    }
    if (spec.has("apw")) {
        const std::uint64_t apw =
            boundedU64(spec.at("apw"), "apw", 0, 1u << 30);
        if (apw > 0) {
            for (auto &phase : profile.phases)
                phase.accessesPerWarp = apw;
        }
    }

    if (org == "all") {
        plan.addOrgSweep(profile, cfg, ExperimentPlan::allOrganizations(),
                         seed);
    } else {
        plan.add(profile, cfg, orgKindFromName(org), seed, label);
    }
}

} // namespace

SweepRequest
parseRequest(const std::string &line)
{
    const json::Value doc = json::parse(line);
    if (!doc.has("schema") ||
        doc.at("schema").asString() != requestSchema) {
        invalid("sweep request",
                "expected a ", requestSchema, " document");
    }
    SweepRequest req;
    if (doc.has("id"))
        req.id = doc.at("id").asString();
    if (doc.has("provenance")) {
        const json::Value &p = doc.at("provenance");
        p.require(json::Value::Type::Bool, "provenance");
        req.provenance = p.boolean;
    }
    if (doc.has("deadline_ms")) {
        // Cap at ~12 days; anything larger is either saturated input
        // or a value no deadline mechanism will ever see expire.
        req.deadlineMs = boundedU64(doc.at("deadline_ms"), "deadline_ms",
                                    1, 1000ull * 1000ull * 1000ull);
    }
    if (!doc.has("plan"))
        invalid("sweep request", "missing \"plan\" array");
    const json::Value &plan = doc.at("plan");
    plan.require(json::Value::Type::Array, "plan");
    if (plan.array.empty())
        invalid("sweep request", "\"plan\" is empty");
    for (const json::Value &spec : plan.array)
        addJobSpec(req.plan, spec);
    return req;
}

namespace {

json::Builder
eventHead(const std::string &id, const char *event)
{
    json::Builder b('{');
    b.field("schema", json::escape(responseSchema))
        .field("id", json::escape(id))
        .field("event", json::escape(event));
    return b;
}

} // namespace

std::string
recordEvent(const SweepRequest &request, const EngineProgress &event)
{
    json::Builder b = eventHead(request.id, "record");
    b.field("jobIndex",
            json::number(static_cast<std::uint64_t>(
                event.record.jobIndex)));
    if (request.provenance) {
        b.field("source",
                json::escape(toString(event.record.source)));
    }
    b.field("record", result_io::recordToJson(event.record));
    return b.close('}');
}

std::string
doneEvent(const SweepRequest &request, const SweepCounts &counts)
{
    json::Builder b = eventHead(request.id, "done");
    b.field("jobs", json::number(static_cast<std::uint64_t>(counts.jobs)))
        .field("simulated",
               json::number(static_cast<std::uint64_t>(counts.simulated)))
        .field("cacheHits",
               json::number(static_cast<std::uint64_t>(counts.cacheHits)))
        .field("cacheMisses", json::number(static_cast<std::uint64_t>(
                                  counts.cacheMisses)));
    return b.close('}');
}

std::string
errorEvent(const std::string &id, const std::string &message,
           bool retryable)
{
    json::Builder b = eventHead(id, "error");
    b.field("message", json::escape(message))
        .field("retryable", retryable ? "true" : "false");
    return b.close('}');
}

} // namespace sac::service
