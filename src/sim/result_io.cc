#include "sim/result_io.hh"

#include <ostream>
#include <sstream>

#include "common/json.hh"
#include "common/log.hh"
#include "telemetry/export.hh"

namespace sac::result_io {
namespace {

using json::Builder;
using json::Value;

std::string
decisionToJson(const SacDecision &d)
{
    Builder eab('{');
    eab.field("memLocal", json::number(d.eab.memSide.local))
        .field("memRemote", json::number(d.eab.memSide.remote))
        .field("smLocal", json::number(d.eab.smSide.local))
        .field("smRemote", json::number(d.eab.smSide.remote));

    Builder in('{');
    in.field("rLocal", json::number(d.inputs.rLocal))
        .field("lsuMem", json::number(d.inputs.lsuMem))
        .field("lsuSm", json::number(d.inputs.lsuSm))
        .field("hitMem", json::number(d.inputs.hitMem))
        .field("hitSm", json::number(d.inputs.hitSm));

    Builder b('{');
    b.field("kernel", json::number(static_cast<std::uint64_t>(
                static_cast<unsigned>(d.kernel))))
        .field("chosen", json::escape(toString(d.chosen)))
        .field("eab", eab.close('}'))
        .field("inputs", in.close('}'));
    return b.close('}');
}

std::string
streamResultToJson(const StreamResult &s)
{
    Builder cycles('[');
    for (const auto c : s.kernelCycles)
        cycles.item(json::number(c));

    Builder decisions('[');
    for (const auto &d : s.sacDecisions)
        decisions.item(decisionToJson(d));

    Builder b('{');
    b.field("stream", json::number(static_cast<std::uint64_t>(
                static_cast<unsigned>(s.stream))))
        .field("name", json::escape(s.name))
        .field("launchCycle", json::number(s.launchCycle))
        .field("finishCycle", json::number(s.finishCycle))
        .field("kernelCycles", cycles.close(']'))
        .field("accesses", json::number(s.accesses))
        .field("l1Hits", json::number(s.l1Hits))
        .field("l1Misses", json::number(s.l1Misses))
        .field("llcRequests", json::number(s.llcRequests))
        .field("llcHits", json::number(s.llcHits))
        .field("avgLoadLatency", json::number(s.avgLoadLatency))
        .field("flushStallCycles", json::number(s.flushStallCycles))
        .field("sacDecisions", decisions.close(']'));
    return b.close('}');
}

SacDecision decisionFromValue(const Value &v);

StreamResult
streamResultFromValue(const Value &v)
{
    StreamResult s;
    s.stream = static_cast<int>(v.at("stream").asU64());
    s.name = v.at("name").asString();
    s.launchCycle = v.at("launchCycle").asU64();
    s.finishCycle = v.at("finishCycle").asU64();
    for (const auto &c : v.at("kernelCycles").array)
        s.kernelCycles.push_back(c.asU64());
    s.accesses = v.at("accesses").asU64();
    s.l1Hits = v.at("l1Hits").asU64();
    s.l1Misses = v.at("l1Misses").asU64();
    s.llcRequests = v.at("llcRequests").asU64();
    s.llcHits = v.at("llcHits").asU64();
    s.avgLoadLatency = v.at("avgLoadLatency").asDouble();
    s.flushStallCycles = v.at("flushStallCycles").asU64();
    for (const auto &d : v.at("sacDecisions").array)
        s.sacDecisions.push_back(decisionFromValue(d));
    return s;
}

LlcMode
llcModeFromName(const std::string &name)
{
    if (name == toString(LlcMode::MemorySide))
        return LlcMode::MemorySide;
    if (name == toString(LlcMode::SmSide))
        return LlcMode::SmSide;
    fatal("results JSON: unknown LLC mode '", name, "'");
}

SacDecision
decisionFromValue(const Value &v)
{
    SacDecision d;
    d.kernel = static_cast<int>(v.at("kernel").asU64());
    d.chosen = llcModeFromName(v.at("chosen").asString());
    const Value &e = v.at("eab");
    d.eab.memSide.local = e.at("memLocal").asDouble();
    d.eab.memSide.remote = e.at("memRemote").asDouble();
    d.eab.smSide.local = e.at("smLocal").asDouble();
    d.eab.smSide.remote = e.at("smRemote").asDouble();
    const Value &in = v.at("inputs");
    d.inputs.rLocal = in.at("rLocal").asDouble();
    d.inputs.lsuMem = in.at("lsuMem").asDouble();
    d.inputs.lsuSm = in.at("lsuSm").asDouble();
    d.inputs.hitMem = in.at("hitMem").asDouble();
    d.inputs.hitSm = in.at("hitSm").asDouble();
    return d;
}

RunResult
runResultFromValue(const Value &v)
{
    RunResult r;
    r.organization = v.at("organization").asString();
    r.status = runStatusFromName(v.at("status").asString());
    r.diagnostic = v.at("diagnostic").asString();
    r.cycles = v.at("cycles").asU64();
    for (const auto &c : v.at("kernelCycles").array)
        r.kernelCycles.push_back(c.asU64());
    r.accesses = v.at("accesses").asU64();
    r.l1Hits = v.at("l1Hits").asU64();
    r.l1Misses = v.at("l1Misses").asU64();
    r.llcRequests = v.at("llcRequests").asU64();
    r.llcHits = v.at("llcHits").asU64();
    r.effLlcBw = v.at("effLlcBw").asDouble();
    r.bwLocalLlc = v.at("bwLocalLlc").asDouble();
    r.bwRemoteLlc = v.at("bwRemoteLlc").asDouble();
    r.bwLocalMem = v.at("bwLocalMem").asDouble();
    r.bwRemoteMem = v.at("bwRemoteMem").asDouble();
    r.llcRemoteFraction = v.at("llcRemoteFraction").asDouble();
    r.avgLoadLatency = v.at("avgLoadLatency").asDouble();
    r.icnBytes = v.at("icnBytes").asU64();
    r.dramBytes = v.at("dramBytes").asU64();
    r.invalidations = v.at("invalidations").asU64();
    r.reconfigurations = static_cast<int>(v.at("reconfigurations").asU64());
    r.flushStallCycles = v.at("flushStallCycles").asU64();
    for (const auto &d : v.at("sacDecisions").array)
        r.sacDecisions.push_back(decisionFromValue(d));
    // v4 addition; absent from single-stream runs.
    if (v.has("streams"))
        for (const auto &s : v.at("streams").array)
            r.streams.push_back(streamResultFromValue(s));
    // Absent from telemetry-less runs.
    if (v.has("timeline"))
        r.timeline = telemetry::timelineFromValue(v.at("timeline"));
    return r;
}

const char *
schemaForRecords(const std::vector<RunRecord> &records)
{
    for (const auto &rec : records)
        if (!rec.result.streams.empty())
            return "sac.results.v4";
    return "sac.results.v3";
}

} // namespace

RunRecord
recordFromValue(const Value &v)
{
    RunRecord rec;
    rec.jobIndex = v.at("jobIndex").asU64();
    rec.label = v.at("label").asString();
    rec.benchmark = v.at("benchmark").asString();
    rec.seed = v.at("seed").asU64();
    // Volatile fields: written only with WriteOptions::timing.
    if (v.has("wallMs"))
        rec.wallMs = v.at("wallMs").asDouble();
    if (v.has("queueMs"))
        rec.queueMs = v.at("queueMs").asDouble();
    if (v.has("worker"))
        rec.worker = static_cast<unsigned>(v.at("worker").asU64());
    if (v.has("source"))
        rec.source = recordSourceFromName(v.at("source").asString());
    rec.result = runResultFromValue(v.at("result"));
    return rec;
}

std::string
recordToJson(const RunRecord &rec, const WriteOptions &opts)
{
    Builder b('{');
    b.field("jobIndex",
            json::number(static_cast<std::uint64_t>(rec.jobIndex)))
        .field("label", json::escape(rec.label))
        .field("benchmark", json::escape(rec.benchmark))
        .field("seed", json::number(rec.seed))
        // Frozen: a job runs once; kept so v3 bytes stay unchanged.
        .field("attempts", "1");
    if (opts.timing) {
        b.field("wallMs", json::number(rec.wallMs))
            .field("queueMs", json::number(rec.queueMs))
            .field("worker",
                   json::number(static_cast<std::uint64_t>(rec.worker)))
            .field("source", json::escape(toString(rec.source)));
    }
    b.field("result", toJson(rec.result));
    return b.close('}');
}

RunRecord
recordFromJson(const std::string &text)
{
    return recordFromValue(json::parse(text));
}

std::string
toJson(const RunResult &r)
{
    Builder cycles('[');
    for (const auto c : r.kernelCycles)
        cycles.item(json::number(c));

    Builder decisions('[');
    for (const auto &d : r.sacDecisions)
        decisions.item(decisionToJson(d));

    Builder b('{');
    b.field("organization", json::escape(r.organization))
        .field("status", json::escape(toString(r.status)))
        .field("diagnostic", json::escape(r.diagnostic))
        .field("cycles", json::number(r.cycles))
        .field("kernelCycles", cycles.close(']'))
        .field("accesses", json::number(r.accesses))
        .field("l1Hits", json::number(r.l1Hits))
        .field("l1Misses", json::number(r.l1Misses))
        .field("llcRequests", json::number(r.llcRequests))
        .field("llcHits", json::number(r.llcHits))
        .field("effLlcBw", json::number(r.effLlcBw))
        .field("bwLocalLlc", json::number(r.bwLocalLlc))
        .field("bwRemoteLlc", json::number(r.bwRemoteLlc))
        .field("bwLocalMem", json::number(r.bwLocalMem))
        .field("bwRemoteMem", json::number(r.bwRemoteMem))
        .field("llcRemoteFraction", json::number(r.llcRemoteFraction))
        .field("avgLoadLatency", json::number(r.avgLoadLatency))
        .field("icnBytes", json::number(r.icnBytes))
        .field("dramBytes", json::number(r.dramBytes))
        .field("invalidations", json::number(r.invalidations))
        .field("reconfigurations",
               json::number(static_cast<std::uint64_t>(
                   static_cast<unsigned>(r.reconfigurations))))
        .field("flushStallCycles", json::number(r.flushStallCycles))
        .field("sacDecisions", decisions.close(']'));
    if (!r.streams.empty()) {
        Builder streams('[');
        for (const auto &s : r.streams)
            streams.item(streamResultToJson(s));
        b.field("streams", streams.close(']'));
    }
    if (r.timeline)
        b.field("timeline", telemetry::toJson(*r.timeline));
    return b.close('}');
}

std::string
toJson(const std::vector<RunRecord> &records, const WriteOptions &opts)
{
    Builder results('[');
    for (const auto &rec : records)
        results.item(recordToJson(rec, opts));
    Builder doc('{');
    doc.field("schema", json::escape(schemaForRecords(records)))
        .field("results", results.close(']'));
    return doc.close('}');
}

void
write(std::ostream &os, const std::vector<RunRecord> &records,
      const WriteOptions &opts)
{
    os << toJson(records, opts) << "\n";
}

RunResult
runResultFromJson(const std::string &text)
{
    return runResultFromValue(json::parse(text));
}

std::vector<RunRecord>
fromJson(const std::string &text)
{
    const Value doc = json::parse(text);
    if (!doc.has("schema"))
        fatal("results JSON: not a sac.results document");
    const std::string &schema = doc.at("schema").asString();
    if (schema != "sac.results.v3" && schema != "sac.results.v4") {
        fatal("results JSON: unsupported schema '", schema, "'");
    }
    std::vector<RunRecord> out;
    for (const auto &v : doc.at("results").array)
        out.push_back(recordFromValue(v));
    return out;
}

std::vector<RunRecord>
read(std::istream &is)
{
    std::ostringstream buf;
    buf << is.rdbuf();
    return fromJson(buf.str());
}

} // namespace sac::result_io
