#include "telemetry/export.hh"

#include <ostream>

#include "common/log.hh"

namespace sac::telemetry {
namespace {

using json::Builder;
using json::Value;

std::string
sampleToJson(const EpochSample &s)
{
    Builder b('{');
    b.field("start", json::number(s.start))
        .field("end", json::number(s.end))
        .field("kernel", json::number(static_cast<double>(s.kernel)))
        .field("mode", json::escape(s.mode))
        .field("llcRequests", json::number(s.llcRequests))
        .field("llcHits", json::number(s.llcHits))
        .field("respLocalLlc", json::number(s.respLocalLlc))
        .field("respRemoteLlc", json::number(s.respRemoteLlc))
        .field("respLocalMem", json::number(s.respLocalMem))
        .field("respRemoteMem", json::number(s.respRemoteMem))
        .field("icnBytes", json::number(s.icnBytes))
        .field("dramBytes", json::number(s.dramBytes))
        .field("linkUtil", json::number(s.linkUtilization))
        .field("peakLinkUtil", json::number(s.peakLinkUtilization));
    return b.close('}');
}

EpochSample
sampleFromValue(const Value &v)
{
    EpochSample s;
    s.start = v.at("start").asU64();
    s.end = v.at("end").asU64();
    s.kernel = static_cast<int>(v.at("kernel").asDouble());
    s.mode = v.at("mode").asString();
    s.llcRequests = v.at("llcRequests").asU64();
    s.llcHits = v.at("llcHits").asU64();
    s.respLocalLlc = v.at("respLocalLlc").asU64();
    s.respRemoteLlc = v.at("respRemoteLlc").asU64();
    s.respLocalMem = v.at("respLocalMem").asU64();
    s.respRemoteMem = v.at("respRemoteMem").asU64();
    s.icnBytes = v.at("icnBytes").asU64();
    s.dramBytes = v.at("dramBytes").asU64();
    s.linkUtilization = v.at("linkUtil").asDouble();
    s.peakLinkUtilization = v.at("peakLinkUtil").asDouble();
    return s;
}

std::string
eventToJson(const TraceEvent &e)
{
    // Args stay an array of [name, value] pairs: an object would come
    // back key-sorted from the parser and break the byte-identical
    // round trip the determinism tests rely on.
    Builder args('[');
    for (const auto &[name, value] : e.args) {
        Builder pair('[');
        pair.item(json::escape(name)).item(json::number(value));
        args.item(pair.close(']'));
    }
    Builder b('{');
    b.field("kind", json::escape(toString(e.kind)))
        .field("cycle", json::number(e.cycle))
        .field("dur", json::number(e.duration))
        .field("kernel", json::number(static_cast<double>(e.kernel)))
        .field("chip", json::number(static_cast<double>(e.chip)))
        .field("label", json::escape(e.label))
        .field("args", args.close(']'));
    return b.close('}');
}

TraceEvent
eventFromValue(const Value &v)
{
    TraceEvent e;
    e.kind = eventKindFromName(v.at("kind").asString());
    e.cycle = v.at("cycle").asU64();
    e.duration = v.at("dur").asU64();
    e.kernel = static_cast<int>(v.at("kernel").asDouble());
    e.chip = static_cast<ChipId>(v.at("chip").asDouble());
    e.label = v.at("label").asString();
    for (const auto &pair : v.at("args").array) {
        pair.require(Value::Type::Array, "args pair");
        if (pair.array.size() != 2)
            fatal("telemetry JSON: event arg pair needs 2 elements");
        e.args.emplace_back(pair.array[0].asString(),
                            pair.array[1].asDouble());
    }
    return e;
}

/** Chrome-trace microsecond timestamp: 1 cycle = 1 ns. */
std::string
chromeTs(Cycle cycle)
{
    return json::number(static_cast<double>(cycle) / 1000.0);
}

std::string
chromeEvent(const char *name, const char *ph, Cycle ts, int pid,
            std::string extra_fields = "")
{
    Builder b('{');
    b.field("name", json::escape(name))
        .field("cat", json::escape("sac"))
        .field("ph", json::escape(ph))
        .field("ts", chromeTs(ts))
        .field("pid", json::number(static_cast<std::uint64_t>(pid)))
        .field("tid", json::number(std::uint64_t{0}));
    std::string text = b.close('}');
    if (!extra_fields.empty())
        text.insert(text.size() - 1, "," + extra_fields);
    return text;
}

std::string
argsObject(const std::vector<std::pair<std::string, double>> &args)
{
    Builder b('{');
    for (const auto &[name, value] : args)
        b.field(name, json::number(value));
    return b.close('}');
}

} // namespace

std::string
toJson(const Timeline &timeline)
{
    Builder samples('[');
    for (const auto &s : timeline.samples)
        samples.item(sampleToJson(s));
    Builder events('[');
    for (const auto &e : timeline.events)
        events.item(eventToJson(e));

    Builder b('{');
    b.field("epoch", json::number(timeline.epoch))
        .field("samples", samples.close(']'))
        .field("events", events.close(']'));
    return b.close('}');
}

Timeline
timelineFromValue(const Value &v)
{
    Timeline t;
    t.epoch = v.at("epoch").asU64();
    for (const auto &s : v.at("samples").array)
        t.samples.push_back(sampleFromValue(s));
    for (const auto &e : v.at("events").array)
        t.events.push_back(eventFromValue(e));
    return t;
}

namespace {

/** Appends one run's events to @p array, as Perfetto process @p pid. */
void
appendChromeEvents(Builder &array, const Timeline &timeline,
                   const std::string &label, int pid)
{
    {
        Builder meta('{');
        meta.field("name", json::escape("process_name"))
            .field("ph", json::escape("M"))
            .field("pid", json::number(static_cast<std::uint64_t>(pid)))
            .field("args", Builder('{')
                               .field("name", json::escape(label))
                               .close('}'));
        array.item(meta.close('}'));
    }

    for (const auto &e : timeline.events) {
        const std::string kernel_name =
            "kernel " + std::to_string(e.kernel);
        switch (e.kind) {
          case EventKind::KernelBegin:
            array.item(chromeEvent(kernel_name.c_str(), "B", e.cycle, pid,
                                   "\"args\":" + argsObject({}) ));
            break;
          case EventKind::KernelEnd:
            array.item(chromeEvent(kernel_name.c_str(), "E", e.cycle, pid));
            break;
          case EventKind::WindowClose: {
            const std::string name = "window-close -> " + e.label;
            array.item(chromeEvent(name.c_str(), "i", e.cycle, pid,
                                   "\"s\":\"p\",\"args\":" +
                                       argsObject(e.args)));
            break;
          }
          case EventKind::Reconfigure: {
            const std::string name = "reconfigure -> " + e.label;
            array.item(chromeEvent(name.c_str(), "i", e.cycle, pid,
                                   "\"s\":\"p\""));
            break;
          }
          case EventKind::Flush: {
            const std::string name = "flush (" + e.label + ")";
            array.item(chromeEvent(name.c_str(), "X", e.cycle, pid,
                                   "\"dur\":" + chromeTs(e.duration)));
            break;
          }
          case EventKind::WayMove: {
            const std::string name =
                "way-move chip" + std::to_string(e.chip);
            array.item(chromeEvent(name.c_str(), "i", e.cycle, pid,
                                   "\"s\":\"p\",\"args\":" +
                                       argsObject(e.args)));
            break;
          }
        }
    }

    for (const auto &s : timeline.samples) {
        array.item(chromeEvent(
            "LLC hit rate", "C", s.end, pid,
            "\"args\":" + argsObject({{"hitRate", s.llcHitRate()}})));
        array.item(chromeEvent(
            "link utilization", "C", s.end, pid,
            "\"args\":" + argsObject({{"aggregate", s.linkUtilization},
                                      {"peakChip",
                                       s.peakLinkUtilization}})));
        const double cycles =
            s.cycles() ? static_cast<double>(s.cycles()) : 1.0;
        array.item(chromeEvent(
            "responses/cycle", "C", s.end, pid,
            "\"args\":" +
                argsObject(
                    {{"localLlc",
                      static_cast<double>(s.respLocalLlc) / cycles},
                     {"remoteLlc",
                      static_cast<double>(s.respRemoteLlc) / cycles},
                     {"localMem",
                      static_cast<double>(s.respLocalMem) / cycles},
                     {"remoteMem",
                      static_cast<double>(s.respRemoteMem) / cycles}})));
        array.item(chromeEvent(
            "DRAM bytes/cycle", "C", s.end, pid,
            "\"args\":" +
                argsObject({{"bytes", static_cast<double>(s.dramBytes) /
                                          cycles}})));
    }
}

} // namespace

void
writeChromeTrace(std::ostream &os, const std::vector<TraceRun> &runs)
{
    Builder events('[');
    int pid = 0;
    for (const auto &[label, timeline] : runs)
        appendChromeEvents(events, *timeline, label, pid++);
    Builder doc('{');
    doc.field("traceEvents", events.close(']'))
        .field("displayTimeUnit", json::escape("ns"));
    os << doc.close('}') << "\n";
}

} // namespace sac::telemetry
