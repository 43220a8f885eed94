#include "service/protocol.hh"

#include "common/log.hh"
#include "sim/result_io.hh"
#include "workload/scenario.hh"

namespace sac::service {

const char *const requestSchema = "sac.sweep.v1";
const char *const responseSchema = "sac.sweep-result.v1";

namespace {

/** The JobSpec one "plan" element spells; addJobs() checks it. */
JobSpec
jobSpecFromJson(const json::Value &v)
{
    JobSpec spec;
    if (v.has("benchmark"))
        spec.benchmark = v.at("benchmark").asString();
    if (v.has("scenario"))
        spec.scenario = scenarioFromStreamsValue(v.at("scenario"));
    if (v.has("org"))
        spec.org = v.at("org").asString();
    if (v.has("seed"))
        spec.seed = v.at("seed").asU64();
    if (v.has("scale"))
        spec.scale = v.at("scale").asU64();
    if (v.has("inputScale"))
        spec.inputScale = v.at("inputScale").asDouble();
    if (v.has("coherence"))
        spec.coherence = v.at("coherence").asString();
    if (v.has("sectors"))
        spec.sectors = v.at("sectors").asU64();
    if (v.has("interChipBw"))
        spec.interChipBw = v.at("interChipBw").asDouble();
    if (v.has("apw"))
        spec.apw = v.at("apw").asU64();
    if (v.has("label"))
        spec.label = v.at("label").asString();
    return spec;
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
        const json::Value &v = doc.at("deadline_ms");
        req.deadlineMs = v.asU64();
        if (req.deadlineMs < 1 || req.deadlineMs > 1'000'000'000)
            invalid("deadline_ms", "must be 1 to 1e9 ms, got ", v.text);
    }
    if (!doc.has("plan"))
        invalid("sweep request", "missing \"plan\" array");
    const json::Value &plan = doc.at("plan");
    plan.require(json::Value::Type::Array, "plan");
    if (plan.array.empty())
        invalid("sweep request", "\"plan\" is empty");
    for (const json::Value &spec : plan.array)
        addJobs(req.plan, jobSpecFromJson(spec));
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
