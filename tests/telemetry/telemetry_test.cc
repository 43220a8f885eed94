/** @file Tests for the telemetry subsystem: the epoch sampler, event
 *  traces and the three export formats. */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/json.hh"
#include "common/log.hh"
#include "sim/engine.hh"
#include "sim/plan.hh"
#include "sim/result_io.hh"
#include "telemetry/event_trace.hh"
#include "telemetry/export.hh"
#include "telemetry/sampler.hh"
#include "workload/suite.hh"

namespace sac {
namespace {

using telemetry::Counters;
using telemetry::EventKind;
using telemetry::EventTrace;
using telemetry::Sampler;
using telemetry::Timeline;
using telemetry::TraceEvent;

// --- Sampler ----------------------------------------------------------

Counters
countersAt(std::uint64_t scale)
{
    Counters c;
    c.llcRequests = 100 * scale;
    c.llcHits = 80 * scale;
    c.respLocalLlc = 50 * scale;
    c.respRemoteLlc = 20 * scale;
    c.respLocalMem = 15 * scale;
    c.respRemoteMem = 5 * scale;
    c.icnBytes = 1024 * scale;
    c.dramBytes = 2048 * scale;
    c.icnBySrc = {256 * scale, 768 * scale};
    return c;
}

TEST(Sampler, ProducesPerEpochDeltas)
{
    Sampler s(256, 8.0);
    EXPECT_FALSE(s.due(255));
    EXPECT_TRUE(s.due(256));

    s.sample(countersAt(1), 256, 0, "memory-side");
    s.sample(countersAt(3), 512, 0, "SM-side");

    const auto &samples = s.samples();
    ASSERT_EQ(samples.size(), 2u);
    EXPECT_EQ(samples[0].start, 0u);
    EXPECT_EQ(samples[0].end, 256u);
    EXPECT_EQ(samples[0].llcRequests, 100u);
    EXPECT_EQ(samples[0].mode, "memory-side");

    // Second sample sees only the delta, not the running totals.
    EXPECT_EQ(samples[1].start, 256u);
    EXPECT_EQ(samples[1].llcRequests, 200u);
    EXPECT_EQ(samples[1].llcHits, 160u);
    EXPECT_EQ(samples[1].icnBytes, 2048u);
    EXPECT_EQ(samples[1].mode, "SM-side");
    EXPECT_DOUBLE_EQ(samples[1].llcHitRate(), 0.8);

    // Aggregate: 2048 bytes / (256 cycles * 8 B/cycle * 2 chips).
    EXPECT_DOUBLE_EQ(samples[1].linkUtilization, 0.5);
    // Peak chip moved 1536 bytes: 1536 / (256 * 8).
    EXPECT_DOUBLE_EQ(samples[1].peakLinkUtilization, 0.75);
}

TEST(Sampler, FinishDropsZeroLengthTail)
{
    Sampler s(256, 8.0);
    s.sample(countersAt(1), 256, 0, "m");
    s.finish(countersAt(1), 256, 0, "m");
    EXPECT_EQ(s.samples().size(), 1u);

    s.finish(countersAt(2), 300, 0, "m");
    ASSERT_EQ(s.samples().size(), 2u);
    EXPECT_EQ(s.samples()[1].start, 256u);
    EXPECT_EQ(s.samples()[1].end, 300u);
}

// --- EventTrace -------------------------------------------------------

TEST(EventTrace, RecordsTypedEvents)
{
    EventTrace t;
    t.kernelBegin(0, "CFD-k0", 10);
    t.windowClose(0, 500, "SM-side", {{"eabMem", 1.5}, {"eabSm", 2.5}});
    t.reconfigure(0, 500, "SM-side");
    t.flush(0, 500, 120, "reconfigure");
    t.wayMove(1, 800, 8, 6);
    t.kernelEnd(0, 900, 890);

    ASSERT_EQ(t.size(), 6u);
    const auto &e = t.events();
    EXPECT_EQ(e[0].kind, EventKind::KernelBegin);
    EXPECT_EQ(e[0].label, "CFD-k0");
    EXPECT_EQ(e[1].args.size(), 2u);
    EXPECT_EQ(e[3].duration, 120u);
    EXPECT_EQ(e[4].chip, 1);
    EXPECT_EQ(e[4].args[0].second, 8.0);
    EXPECT_EQ(e[5].duration, 890u);
}

TEST(EventTrace, KindNamesRoundTrip)
{
    for (const auto kind :
         {EventKind::KernelBegin, EventKind::KernelEnd,
          EventKind::WindowClose, EventKind::Reconfigure,
          EventKind::Flush, EventKind::WayMove}) {
        EXPECT_EQ(telemetry::eventKindFromName(toString(kind)), kind);
    }
    EXPECT_THROW(telemetry::eventKindFromName("bogus"), FatalError);
}

// --- export: lossless JSON -------------------------------------------

Timeline
sampleTimeline()
{
    Sampler s(256, 8.0);
    s.sample(countersAt(1), 256, 0, "memory-side");
    s.sample(countersAt(3), 512, 1, "SM-side");

    EventTrace t;
    t.kernelBegin(0, "k\"quoted\"", 0);
    t.windowClose(0, 200, "SM-side", {{"eabMem", 1.25}, {"eabSm", 2.5}});
    t.kernelEnd(0, 256, 256);

    Timeline tl;
    tl.epoch = 256;
    tl.samples = s.take();
    tl.events = t.take();
    return tl;
}

TEST(Export, TimelineJsonRoundTripsByteForByte)
{
    const Timeline tl = sampleTimeline();
    const std::string text = telemetry::toJson(tl);
    const Timeline back = telemetry::timelineFromJson(text);
    EXPECT_EQ(telemetry::toJson(back), text);

    EXPECT_EQ(back.epoch, tl.epoch);
    ASSERT_EQ(back.samples.size(), tl.samples.size());
    EXPECT_EQ(back.samples[1].llcRequests, tl.samples[1].llcRequests);
    EXPECT_EQ(back.samples[1].mode, "SM-side");
    ASSERT_EQ(back.events.size(), tl.events.size());
    EXPECT_EQ(back.events[0].label, "k\"quoted\"");
    EXPECT_EQ(back.events[1].args, tl.events[1].args);
}

TEST(Export, JsonlEmitsOneParsableObjectPerEvent)
{
    const Timeline tl = sampleTimeline();
    std::ostringstream os;
    telemetry::writeJsonl(os, tl, "CFD/sac");

    std::istringstream is(os.str());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(is, line)) {
        const auto v = json::parse(line);
        EXPECT_EQ(v.at("run").asString(), "CFD/sac");
        EXPECT_NO_THROW(telemetry::eventKindFromName(
            v.at("kind").asString()));
        ++lines;
    }
    EXPECT_EQ(lines, tl.events.size());
}

// --- export: Chrome trace --------------------------------------------

TEST(Export, ChromeTraceIsWellFormed)
{
    // Two runs in one document, as sacsim --trace-events writes them.
    const Timeline tl = sampleTimeline();
    std::ostringstream os;
    telemetry::writeChromeTrace(os, {{"CFD/mem", &tl}, {"CFD/sac", &tl}});
    EXPECT_EQ(os.str().back(), '\n');

    const auto doc = json::parse(os.str());
    ASSERT_TRUE(doc.has("traceEvents"));
    EXPECT_EQ(doc.at("displayTimeUnit").asString(), "ns");
    const auto &events = doc.at("traceEvents").array;
    // Per run: metadata + 3 events + 2 samples * 4 counter tracks.
    constexpr std::size_t perRun = 1u + 3u + 2u * 4u;
    ASSERT_EQ(events.size(), 2 * perRun);

    const std::set<std::string> phases = {"M", "B", "E", "X", "i", "C"};
    for (std::size_t i = 0; i < events.size(); ++i) {
        const auto &e = events[i];
        EXPECT_TRUE(phases.count(e.at("ph").asString()))
            << e.at("ph").asString();
        EXPECT_FALSE(e.at("name").asString().empty());
        // Each run is its own Perfetto process, numbered in order.
        EXPECT_EQ(e.at("pid").asU64(), i / perRun);
        if (e.at("ph").asString() != "M") {
            EXPECT_GE(e.at("ts").asDouble(), 0.0);
        }
    }

    // The process metadata names the run.
    for (const auto &[at, label] :
         {std::pair{0u, "CFD/mem"}, std::pair{1u, "CFD/sac"}}) {
        const auto &meta = events[at * perRun];
        EXPECT_EQ(meta.at("ph").asString(), "M");
        EXPECT_EQ(meta.at("args").at("name").asString(), label);
    }

    // Kernel begin/end become a balanced B/E span pair per run.
    std::size_t begins = 0;
    std::size_t ends = 0;
    for (const auto &e : events) {
        if (e.at("ph").asString() == "B")
            ++begins;
        if (e.at("ph").asString() == "E")
            ++ends;
    }
    EXPECT_EQ(begins, 2u);
    EXPECT_EQ(ends, 2u);
}

// --- end-to-end through a real run -----------------------------------

GpuConfig
tinyConfig()
{
    GpuConfig cfg = GpuConfig::scaled(8);
    cfg.warpsPerCluster = 4;
    cfg.sac.profileWindow = 512;
    cfg.sac.profileMinRequests = 400;
    return cfg;
}

WorkloadProfile
tinyProfile(const std::string &name)
{
    WorkloadProfile p = findBenchmark(name);
    p.numKernels = 2;
    for (auto &ph : p.phases)
        ph.accessesPerWarp = 32;
    return p;
}

TEST(Telemetry, SacRunProducesAnnotatedTimeline)
{
    ExperimentJob job;
    job.profile = tinyProfile("RN");
    job.config = tinyConfig();
    job.org = OrgKind::Sac;
    job.telemetry = {.epoch = 256, .events = true};
    const auto result = ExperimentEngine::runJob(job).result;

    ASSERT_TRUE(result.timeline.has_value());
    const Timeline &tl = *result.timeline;
    EXPECT_EQ(tl.epoch, 256u);
    ASSERT_FALSE(tl.samples.empty());
    ASSERT_FALSE(tl.events.empty());

    // Samples cover the run in order and sum to the final counters.
    std::uint64_t requests = 0;
    Cycle prev_end = 0;
    for (const auto &s : tl.samples) {
        EXPECT_EQ(s.start, prev_end);
        EXPECT_GT(s.end, s.start);
        EXPECT_GE(s.linkUtilization, 0.0);
        EXPECT_GE(s.peakLinkUtilization, s.linkUtilization);
        EXPECT_FALSE(s.mode.empty());
        prev_end = s.end;
        requests += s.llcRequests;
    }
    EXPECT_EQ(prev_end, result.cycles);
    EXPECT_EQ(requests, result.llcRequests);

    // Every kernel produced a begin/end pair and a window close with
    // the EAB numbers attached.
    std::size_t begins = 0;
    std::size_t closes = 0;
    for (const auto &e : tl.events) {
        if (e.kind == EventKind::KernelBegin)
            ++begins;
        if (e.kind == EventKind::WindowClose) {
            ++closes;
            std::set<std::string> keys;
            for (const auto &[k, v] : e.args)
                keys.insert(k);
            EXPECT_TRUE(keys.count("eabMem"));
            EXPECT_TRUE(keys.count("eabSm"));
            EXPECT_TRUE(keys.count("hitMem"));
        }
    }
    EXPECT_EQ(begins, 2u);
    EXPECT_GE(closes, 2u);
}

TEST(Telemetry, ResultsV3RoundTripsTimeline)
{
    ExperimentPlan plan;
    plan.add(tinyProfile("RN"), tinyConfig(), OrgKind::Sac);
    plan.enableTelemetry({.epoch = 256, .events = true});
    const auto records = ExperimentEngine(1).run(plan);
    ASSERT_EQ(records.size(), 1u);
    ASSERT_TRUE(records[0].result.timeline.has_value());

    // v3 round trip, timeline included.
    const std::string text = result_io::toJson(records);
    EXPECT_NE(text.find("\"schema\":\"sac.results.v3\""),
              std::string::npos);
    const auto back = result_io::fromJson(text);
    ASSERT_EQ(back.size(), 1u);
    ASSERT_TRUE(back[0].result.timeline.has_value());
    EXPECT_EQ(result_io::toJson(back), text);

    EXPECT_THROW(result_io::fromJson(
                     "{\"schema\":\"sac.results.v9\",\"results\":[]}"),
                 FatalError);
}

} // namespace
} // namespace sac
