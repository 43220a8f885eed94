#include "workloads.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/json.hh"
#include "common/rng.hh"
#include "service/daemon.hh"
#include "service/protocol.hh"
#include "service/result_cache.hh"
#include "sim/engine.hh"
#include "sim/plan.hh"
#include "sim/result_io.hh"
#include "workload/scenario.hh"
#include "workload/suite.hh"
#include "workload/tracegen.hh"

namespace perfbench {

namespace {

using namespace sac;
namespace fs = std::filesystem;
namespace svc = sac::service;

/** Set-ups per run; setup_s is their median. */
constexpr int sweepSetupReps = 7;
constexpr int daemonSetupReps = 3;

std::string
fmt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

std::string
line(const std::string &name, double value, const std::string &unit,
     const std::string &note = "")
{
    char buf[160];
    std::snprintf(buf, sizeof buf, "  %-34s %14s %-6s %s", name.c_str(),
                  fmt(value).c_str(), unit.c_str(), note.c_str());
    return buf;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
elapsedMs(double t0)
{
    return (wallNowNs() - t0) / 1e6;
}

// --- request construction --------------------------------------------

/** JSON text of a parsed value; numbers keep their raw token. */
std::string
toText(const json::Value &v)
{
    switch (v.type) {
      case json::Value::Type::Null: return "null";
      case json::Value::Type::Bool: return v.boolean ? "true" : "false";
      case json::Value::Type::Number: return v.text;
      case json::Value::Type::String: return json::escape(v.text);
      case json::Value::Type::Array: {
        json::Builder b('[');
        for (const auto &item : v.array)
            b.item(toText(item));
        return b.close(']');
      }
      case json::Value::Type::Object: {
        json::Builder b('{');
        for (const auto &[key, item] : v.object)
            b.field(key, toText(item));
        return b.close('}');
      }
    }
    return "null";
}

std::string
sweepRequest(const std::string &id, const std::vector<std::string> &specs)
{
    json::Builder plan('[');
    for (const auto &spec : specs)
        plan.item(spec);
    return json::Builder('{')
        .field("schema", json::escape(svc::requestSchema))
        .field("id", json::escape(id))
        .field("plan", plan.close(']'))
        .close('}');
}

std::string
benchmarkSpec(const std::string &name, const std::string &org,
              std::uint64_t seed, std::uint64_t apw)
{
    return json::Builder('{')
        .field("benchmark", json::escape(name))
        .field("org", json::escape(org))
        .field("seed", json::number(seed))
        .field("apw", json::number(apw))
        .close('}');
}

bool
isRecordLine(const std::string &l)
{
    return l.find("\"event\":\"record\"") != std::string::npos;
}

bool
isDoneLine(const std::string &l)
{
    return l.find("\"event\":\"done\"") != std::string::npos;
}

RunRecord
recordOfLine(const std::string &l)
{
    return result_io::recordFromValue(json::parse(l).at("record"));
}

// --- shared checks ----------------------------------------------------

std::map<std::string, std::string>
loadGoldens(const std::string &path, const std::string &workload)
{
    std::map<std::string, std::string> out;
    std::ifstream is(path);
    if (!is)
        return out;
    std::stringstream ss;
    ss << is.rdbuf();
    const json::Value doc = json::parse(ss.str());
    if (!doc.has("workloads") || !doc.at("workloads").has(workload))
        return out;
    for (const auto &[label, v] : doc.at("workloads").at(workload).object)
        out[label] = v.asString();
    return out;
}

/** Compares the observed digests with the committed ones (default
 *  seed only): each label is one attempted check. */
void
checkGoldens(const Options &opts, Outcome &out)
{
    if (opts.seed != defaultSeed) {
        out.report.push_back("  golden digests: not checked (seed " +
                             std::to_string(opts.seed) + " is not the "
                             "default seed " +
                             std::to_string(defaultSeed) + ")");
        return;
    }
    const auto golden = loadGoldens(opts.goldensPath, opts.workload);
    std::size_t bad = 0;
    for (const auto &[label, hex] : out.digests) {
        const auto it = golden.find(label);
        const bool ok = it != golden.end() && it->second == hex;
        out.tally.add(ok, "digest of " + label + " is " + hex +
                              ", golden " +
                              (it == golden.end() ? "missing"
                                                  : it->second));
        bad += ok ? 0 : 1;
    }
    if (bad)
        out.correct = false;
    out.report.push_back("  golden digests: " +
                         std::to_string(out.digests.size()) +
                         " checked, " + std::to_string(bad) +
                         " mismatched");
}

/**
 * Re-runs @p job on the per-cycle reference loop (outside any timed
 * window) and compares its digest with the event-driven @p expected.
 */
void
referenceSpotCheck(ExperimentJob job, std::uint64_t expected,
                   Outcome &out)
{
    job.fastForward = false;
    std::string why;
    bool ok = false;
    try {
        const RunRecord rec = ExperimentEngine::runJob(job);
        ok = rec.result.status == RunStatus::Ok &&
             resultDigest(rec.result) == expected;
        why = hex64(resultDigest(rec.result));
    } catch (const std::exception &e) {
        why = e.what();
    }
    out.tally.add(ok, "reference loop disagrees on " + job.label +
                          " (" + why + ")");
    if (!ok)
        out.correct = false;
    out.report.push_back("  reference-loop spot check: " + job.label +
                         " seed " + std::to_string(job.seed) +
                         (ok ? " matches" : " MISMATCH"));
}

// --- per-layer accounting --------------------------------------------

/** One job run directly on a System, with the timing decorator. */
struct DirectRun
{
    bool ok = false;
    RunResult result;
    std::uint64_t traceCalls = 0;
    double traceNs = 0.0;
    double runNs = 0.0;
    System::FastForwardStats ff;
};

/**
 * Runs @p job the way ExperimentEngine::runJob does — same config,
 * data scaling and generator choice — but with the generator wrapped
 * in a TimedTraceSource, inside spans for System::run and
 * System::fastForwardStats. Never throws: a failure returns ok=false.
 */
DirectRun
runDirect(const ExperimentJob &job, SpanRecorder &spans, unsigned tid)
{
    DirectRun out;
    const std::uint64_t group = spans.newId();
    ScopedSpan root(spans, "job", 0, group, tid);
    try {
        GpuConfig cfg = job.config;
        cfg.seed = job.seed;
        cfg.validate();
        const WorkloadProfile scaled = job.profile.scaledData(dataScale(cfg));
        const Scenario scenario = job.scenario.scaledData(dataScale(cfg));
        std::unique_ptr<TraceSource> gen;
        if (job.hasScenario())
            gen = std::make_unique<StreamTraceMux>(scenario, cfg, job.seed);
        else
            gen = std::make_unique<SharingTraceGen>(scaled, cfg, job.seed);
        TimedTraceSource timed(*gen);
        System system(cfg, job.org, timed);
        system.setRunLimits(job.limits);
        {
            ScopedSpan run(spans, "System::run", root.id(), group, tid);
            const double t0 = wallNowNs();
            out.result = job.hasScenario() ? system.run(scenario)
                                           : system.run(kernelsFor(scaled));
            out.runNs = wallNowNs() - t0;
            run.count("accesses", static_cast<double>(out.result.accesses));
            run.count("trace_calls", static_cast<double>(timed.calls()));
            run.count("trace_ns", timed.ns());
        }
        {
            ScopedSpan ff(spans, "System::fastForwardStats", root.id(),
                          group, tid);
            out.ff = system.fastForwardStats();
        }
        out.traceCalls = timed.calls();
        out.traceNs = timed.ns();
        out.ok = out.result.status == RunStatus::Ok;
    } catch (const std::exception &e) {
        out.result.diagnostic = e.what();
    }
    return out;
}

/** Runs fn(i, tid) for i in [0, n) on @p workers threads. @p fn must
 *  not throw. */
void
parallelFor(std::size_t n, unsigned workers,
            const std::function<void(std::size_t, unsigned)> &fn)
{
    std::atomic<std::size_t> next{0};
    const auto body = [&](unsigned tid) {
        for (std::size_t i; (i = next.fetch_add(1)) < n;)
            fn(i, tid);
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < std::max(1u, workers); ++t)
        pool.emplace_back(body, t);
    body(0);
    for (auto &t : pool)
        t.join();
}

/** Simulated counts, summed over a fixed set of jobs. */
struct SimTotals
{
    double cycles = 0, accesses = 0, loadLatencySum = 0;
    double l1Hits = 0, l1Misses = 0, llcRequests = 0, llcHits = 0;
    double invalidations = 0, icnBytes = 0, dramBytes = 0;
    double decisions = 0, smVerdicts = 0, reconfigurations = 0;
    double flushStall = 0;

    void
    add(const RunResult &r)
    {
        const auto a = static_cast<double>(r.accesses);
        cycles += static_cast<double>(r.cycles);
        accesses += a;
        loadLatencySum += r.avgLoadLatency * a;
        l1Hits += static_cast<double>(r.l1Hits);
        l1Misses += static_cast<double>(r.l1Misses);
        llcRequests += static_cast<double>(r.llcRequests);
        llcHits += static_cast<double>(r.llcHits);
        invalidations += static_cast<double>(r.invalidations);
        icnBytes += static_cast<double>(r.icnBytes);
        dramBytes += static_cast<double>(r.dramBytes);
        decisions += static_cast<double>(r.sacDecisions.size());
        for (const auto &d : r.sacDecisions)
            smVerdicts += d.chosen == LlcMode::SmSide ? 1 : 0;
        reconfigurations += r.reconfigurations;
        flushStall += static_cast<double>(r.flushStallCycles);
    }
};

/** Every per-layer metric, in BENCHMARK.json order. Layers a workload
 *  does not exercise stay 0. */
struct Layers
{
    // Host time.
    double traceCalls = 0, traceRawNs = 0, runNs = 0;
    double engineUtilization = 0, engineQueueMsP50 = 0;
    double resultIoUs = 0, parseUs = 0, recordEventUs = 0;
    double lookupUsP50 = 0, storeUsP50 = 0, daemonSelfShare = 0;
    double traceOverhead = 0;
    // Scheduler counts.
    double schedCycles = 0, heapPops = 0, denseCycles = 0;
    double skippedCycles = 0, ffCycles = 0;
    // Simulated counts.
    SimTotals sim;
    double cacheHits = 0, cacheMisses = 0, cacheRejected = 0;

    void
    addDirect(const DirectRun &r)
    {
        traceCalls += static_cast<double>(r.traceCalls);
        traceRawNs += r.traceNs;
        runNs += r.runNs;
        schedCycles += static_cast<double>(r.ff.schedCycles);
        heapPops += static_cast<double>(r.ff.heapPops);
        denseCycles += static_cast<double>(r.ff.denseCycles);
        skippedCycles += static_cast<double>(r.ff.skippedCycles);
        ffCycles += static_cast<double>(r.result.cycles);
        sim.add(r.result);
    }

    std::vector<Metric>
    metrics(double clockNs) const
    {
        // The decorator adds about one clock read inside each timed
        // interval and one outside it; take both back out.
        const double traceNs =
            std::max(0.0, traceRawNs - traceCalls * clockNs);
        const double coreNs =
            std::max(0.0, runNs - traceRawNs - traceCalls * clockNs);
        const SimTotals &s = sim;
        return {
            {"workload.trace_calls", traceCalls, "count"},
            {"workload.trace_ns_per_call", ratio(traceNs, traceCalls), "ns"},
            {"workload.trace_share", ratio(traceNs, traceNs + coreNs),
             "share"},
            {"sim.core_ns_per_access", ratio(coreNs, s.accesses), "ns"},
            {"sim.engine.utilization", engineUtilization, "share"},
            {"sim.engine.queue_ms_p50", engineQueueMsP50, "ms"},
            {"sim.result_io.us_per_record", resultIoUs, "us"},
            {"service.protocol.parse_us", parseUs, "us"},
            {"service.protocol.record_event_us", recordEventUs, "us"},
            {"service.cache.lookup_us_p50", lookupUsP50, "us"},
            {"service.cache.store_us_p50", storeUsP50, "us"},
            {"service.daemon.self_share", daemonSelfShare, "share"},
            {"trace.overhead", traceOverhead, "share"},
            {"sim.sched_cycles", schedCycles, "count"},
            {"sim.heap_pops", heapPops, "count"},
            {"sim.dense_frac", ratio(denseCycles, schedCycles), "share"},
            {"sim.skipped_frac", ratio(skippedCycles, ffCycles), "share"},
            {"sim.cycles", s.cycles, "cycles"},
            {"gpu.accesses", s.accesses, "count"},
            {"gpu.avg_load_latency", ratio(s.loadLatencySum, s.accesses),
             "cycles"},
            {"cache.l1_hit_rate", ratio(s.l1Hits, s.l1Hits + s.l1Misses),
             "share"},
            {"llc.requests_per_access", ratio(s.llcRequests, s.accesses),
             "count"},
            {"llc.hit_rate", ratio(s.llcHits, s.llcRequests), "share"},
            {"llc.invalidations", s.invalidations, "count"},
            {"noc.icn_bytes_per_access", ratio(s.icnBytes, s.accesses),
             "B"},
            {"mem.dram_bytes_per_access", ratio(s.dramBytes, s.accesses),
             "B"},
            {"sac.decisions", s.decisions, "count"},
            {"sac.sm_side_verdicts", s.smVerdicts, "count"},
            {"sac.reconfigurations", s.reconfigurations, "count"},
            {"sac.flush_stall_cycles", s.flushStall, "cycles"},
            {"service.cache.hits", cacheHits, "count"},
            {"service.cache.misses", cacheMisses, "count"},
            {"service.cache.rejected", cacheRejected, "count"},
        };
    }
};

/** Appends the traced run's self-time table to the report. */
void
reportSelfTimes(const SpanRecorder &spans, Outcome &out)
{
    out.report.push_back("  per-layer self time (traced spans):");
    for (const auto &[name, t] : spans.selfTimes()) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "    %-30s %8llu spans %12.3f ms total %12.3f ms self",
                      name.c_str(), static_cast<unsigned long long>(t.spans),
                      t.totalNs / 1e6, t.selfNs / 1e6);
        out.report.push_back(buf);
    }
}

/** End-to-end metrics shared by every workload, in BENCHMARK.json
 *  order; ok_frac is filled in once every check has been tallied. */
std::vector<Metric>
endToEnd(double setup_s, double wall_s, double cpu_ns_per_access,
         const std::vector<double> &latency_ms, double tail_p,
         Outcome &out)
{
    const auto t = tail(latency_ms, tail_p);
    const double okFrac = 1.0 - out.tally.failFrac();
    out.report.push_back(line("fail_frac", out.tally.failFrac(), "share",
                              std::to_string(out.tally.failed()) + " of " +
                                  std::to_string(out.tally.attempted())));
    out.report.push_back(line(
        "latency samples", static_cast<double>(latency_ms.size()), "count",
        t ? "tail is p" + fmt(t->p * 100.0) : "too few for a tail"));
    out.report.push_back(line("latency median", median(latency_ms), "ms"));
    return {
        {"setup_s", setup_s, "s"},
        {"wall_s", wall_s, "s"},
        {"cpu_ns_per_access", cpu_ns_per_access, "ns"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"ok_frac", okFrac, "share"},
        {"latency_ms_mean", mean(latency_ms), "ms"},
        {"latency_ms_tail", t ? t->value : 0.0, "ms"},
    };
}

// --- paper-sweep and tenants -----------------------------------------

struct SweepDef
{
    /** The sac.sweep.v1 request line; @p warmup shrinks every kernel
     *  to a few accesses per warp for the host warm-up. */
    std::function<std::string(std::uint64_t seed, bool warmup)> request;
    /** Percentile reported as latency_ms_tail. */
    double tailP = 0.9;
    /** Check the paper's SP/MP verdicts (paper-sweep only). */
    bool verdicts = false;
};

/** Fig. 8 subset: three SM-side- and three memory-side-preferred
 *  Table 4 benchmarks, 3MM (three kernels) among them. */
const std::vector<std::string> paperSubset = {"RN",  "SN", "BS",
                                              "3MM", "BP", "DWT"};

/** Kernels run a quarter of Table 4's accesses per warp. */
constexpr std::uint64_t paperApwDivisor = 4;
constexpr std::uint64_t warmupApw = 8;

std::string
paperSweepRequest(std::uint64_t seed, bool warmup)
{
    std::vector<std::string> specs;
    for (const auto &name : paperSubset) {
        const std::uint64_t apw =
            findBenchmark(name).phases.front().accessesPerWarp /
            paperApwDivisor;
        specs.push_back(
            benchmarkSpec(name, "all", seed, warmup ? warmupApw : apw));
    }
    return sweepRequest(warmup ? "paper-sweep-warmup" : "paper-sweep",
                        specs);
}

/** The committed scenarios, read from the checkout. */
const std::vector<std::string> scenarioFiles = {
    "examples/scenario_cfd_srad.json", "examples/scenario_staggered.json"};

std::string
tenantsRequest(std::uint64_t seed, bool warmup)
{
    std::vector<std::string> specs;
    for (const auto &path : scenarioFiles) {
        std::ifstream is(path);
        if (!is)
            throw std::runtime_error("cannot read " + path);
        std::stringstream ss;
        ss << is.rdbuf();
        json::Value streams = json::parse(ss.str()).at("streams");
        if (warmup) {
            for (auto &s : streams.array) {
                json::Value apw;
                apw.type = json::Value::Type::Number;
                apw.text = std::to_string(warmupApw);
                s.object["apw"] = apw;
            }
        }
        specs.push_back(json::Builder('{')
                            .field("scenario", toText(streams))
                            .field("org", json::escape("all"))
                            .field("seed", json::number(seed))
                            .close('}'));
    }
    return sweepRequest(warmup ? "tenants-warmup" : "tenants", specs);
}

/** Share of benchmarks whose mem-vs-SM winner and SAC verdicts agree
 *  with the paper's SP/MP grouping; each benchmark is one check. */
void
checkVerdicts(const ExperimentPlan &plan,
              const std::vector<RunRecord> &recs, Outcome &out)
{
    std::size_t matched = 0;
    for (const auto &name : paperSubset) {
        const RunResult *mem = nullptr, *sm = nullptr, *sac = nullptr;
        bool smPreferred = false;
        for (std::size_t i = 0; i < plan.size(); ++i) {
            if (plan[i].profile.name != name)
                continue;
            smPreferred = plan[i].profile.smSidePreferred;
            const RunResult *r = &recs[i].result;
            if (plan[i].org == OrgKind::MemorySide)
                mem = r;
            else if (plan[i].org == OrgKind::SmSide)
                sm = r;
            else if (plan[i].org == OrgKind::Sac)
                sac = r;
        }
        const LlcMode want =
            smPreferred ? LlcMode::SmSide : LlcMode::MemorySide;
        bool ok = mem && sm && sac && !sac->sacDecisions.empty() &&
                  (sm->cycles < mem->cycles) == smPreferred;
        for (std::size_t k = 0; ok && k < sac->sacDecisions.size(); ++k)
            ok = sac->sacDecisions[k].chosen == want;
        out.tally.add(ok, name + ": verdict disagrees with the paper");
        matched += ok ? 1 : 0;
    }
    if (matched != paperSubset.size())
        out.correct = false;
    out.report.push_back(line(
        "paper_verdict_match",
        static_cast<double>(matched) /
            static_cast<double>(paperSubset.size()),
        "share",
        std::to_string(matched) + " of " +
            std::to_string(paperSubset.size()) + " benchmarks"));
}

Outcome
traceSweep(const SweepDef &def, const Options &opts, SpanRecorder &spans,
           const ExperimentEngine &engine, const std::string &request,
           const ExperimentPlan &plan, Outcome out)
{
    Layers L;
    std::vector<double> parseUs;
    for (int i = 0; i < 21; ++i) {
        ScopedSpan s(spans, "protocol::parseRequest", 0, spans.newId());
        const double t0 = wallNowNs();
        (void)svc::parseRequest(request);
        parseUs.push_back(elapsedMs(t0) * 1e3);
    }
    L.parseUs = median(parseUs);

    // Phase A: the plan through the engine; nothing traced inside.
    const std::uint64_t group = spans.newId();
    EngineTelemetry tel;
    std::vector<RunRecord> recs;
    const double cpuA0 = cpuNowNs();
    {
        ScopedSpan s(spans, "ExperimentEngine::run", 0, group);
        recs = engine.run(plan, &tel);
        s.count("jobs", static_cast<double>(recs.size()));
    }
    const double cpuA = cpuNowNs() - cpuA0;
    double accessesA = 0;
    std::vector<double> queueMs, ioUs;
    for (const auto &rec : recs) {
        out.tally.add(rec.result.status == RunStatus::Ok,
                      rec.label + ": " + rec.result.diagnostic);
        accessesA += static_cast<double>(rec.result.accesses);
        queueMs.push_back(rec.queueMs);
    }
    L.engineUtilization = tel.utilization();
    L.engineQueueMsP50 = median(queueMs);
    {
        ScopedSpan ser(spans, "results.serialize", 0, group);
        for (const auto &rec : recs) {
            ScopedSpan s(spans, "result_io::recordToJson", ser.id(), group);
            const double t0 = wallNowNs();
            const std::string text = result_io::recordToJson(rec);
            ioUs.push_back(elapsedMs(t0) * 1e3);
            s.count("bytes", static_cast<double>(text.size()));
        }
    }
    L.resultIoUs = mean(ioUs);

    // Phase B: every job again, directly, with the timing decorator.
    std::vector<DirectRun> runs(plan.size());
    const double cpuB0 = cpuNowNs();
    parallelFor(plan.size(), opts.workers, [&](std::size_t i, unsigned tid) {
        runs[i] = runDirect(plan[i], spans, tid);
    });
    const double cpuB = cpuNowNs() - cpuB0;
    double accessesB = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const bool same = runs[i].ok && resultDigest(runs[i].result) ==
                                            resultDigest(recs[i].result);
        out.tally.add(same, plan[i].label +
                                ": direct run differs from the engine's");
        out.correct = out.correct && same;
        accessesB += static_cast<double>(runs[i].result.accesses);
        L.addDirect(runs[i]);
    }
    L.traceOverhead = ratio(ratio(cpuB, accessesB), ratio(cpuA, accessesA)) -
                      1.0;
    if (def.verdicts)
        checkVerdicts(plan, recs, out);

    out.metrics = L.metrics(clockPairNs());
    out.report.push_back(line("traced vs untraced cpu/access",
                              L.traceOverhead, "share",
                              "direct traced pass vs engine pass"));
    reportSelfTimes(spans, out);
    return out;
}

Outcome
runSweep(const SweepDef &def, const Options &opts, SpanRecorder &spans)
{
    Outcome out;
    const std::string request = def.request(opts.seed, false);
    const std::string warmup = def.request(opts.seed, true);
    const ExperimentEngine engine(opts.workers);

    // Set-up: plan construction through the protocol layer, then a
    // host warm-up pass over the same plan with tiny kernels (worker
    // stacks, allocator arenas and code pages hot before timing).
    svc::SweepRequest req;
    std::vector<double> setups;
    for (int r = 0; r < (opts.trace ? 1 : sweepSetupReps); ++r) {
        const double t0 = wallNowNs();
        req = svc::parseRequest(request);
        for (const auto &rec : engine.run(svc::parseRequest(warmup).plan))
            out.tally.add(rec.result.status == RunStatus::Ok,
                          "warm-up " + rec.label);
        setups.push_back(elapsedMs(t0) / 1e3);
    }
    const ExperimentPlan &plan = req.plan;
    if (opts.trace)
        return traceSweep(def, opts, spans, engine, request, plan,
                          std::move(out));

    // Timed window: whole plans, back to back, one client. Latency is
    // each job's host time on its worker.
    std::vector<double> roundWall, roundCpu, jobMs;
    std::vector<RunRecord> first;
    const double w0 = wallNowNs();
    for (int round = 0;; ++round) {
        const double t0 = wallNowNs();
        const double c0 = cpuNowNs();
        std::vector<RunRecord> recs = engine.run(plan);
        roundWall.push_back(elapsedMs(t0) / 1e3);
        double accesses = 0;
        for (std::size_t i = 0; i < recs.size(); ++i) {
            const RunResult &r = recs[i].result;
            const bool ok =
                r.status == RunStatus::Ok &&
                (round == 0 ||
                 resultDigest(r) == resultDigest(first[i].result));
            out.tally.add(ok, recs[i].label + ": " + toString(r.status) +
                                  " " + r.diagnostic);
            if (r.status != RunStatus::Ok)
                continue;
            accesses += static_cast<double>(r.accesses);
            jobMs.push_back(recs[i].wallMs);
        }
        roundCpu.push_back(ratio(cpuNowNs() - c0, accesses));
        if (round == 0)
            first = std::move(recs);
        if (wallNowNs() - w0 >= opts.seconds * 1e9)
            break;
    }

    // Checks, outside the timed window.
    std::vector<std::uint64_t> digests;
    for (const auto &rec : first) {
        digests.push_back(resultDigest(rec.result));
        out.digests[rec.label] = hex64(digests.back());
    }
    checkGoldens(opts, out);
    Rng pick(opts.seed, 0x5eed);
    const std::size_t idx = pick.next() % plan.size();
    referenceSpotCheck(plan[idx], digests[idx], out);
    if (def.verdicts)
        checkVerdicts(plan, first, out);

    out.report.push_back(line("rounds", static_cast<double>(roundWall.size()),
                              "count",
                              std::to_string(plan.size()) + " jobs each"));
    out.metrics = endToEnd(median(setups), median(roundWall),
                           median(roundCpu), jobMs, def.tailP, out);
    return out;
}

// --- daemon-cache ------------------------------------------------------

/** Short kernels for the daemon's jobs (tens of ms each). */
constexpr std::uint64_t daemonApw = 32;
/** Benchmarks whose org sweeps pre-populate the cache. */
const std::vector<std::string> warmBenchmarks = {
    "RN", "AN", "SN", "CFD", "SRAD", "GEMM", "BP", "DWT"};
/** Organization names as the sweep protocol spells them. */
const std::vector<std::string> orgNames = {"mem", "sm", "static",
                                           "dynamic", "sac"};
/** Warm plans submitted after each cold plan. */
constexpr int warmPerCold = 64;
/** Cold plans whose digests are checked (and, traced, replayed). */
constexpr std::size_t checkedCold = 6;

std::string
warmRequest(const std::string &name, std::uint64_t seed)
{
    return sweepRequest("warm-" + name,
                        {benchmarkSpec(name, "all", seed, daemonApw)});
}

/** Cold plans per cycle: every (benchmark, organization) pair once. */
const std::size_t coldCycle = warmBenchmarks.size() * orgNames.size();

/**
 * Cold plan @p k: one single job under a fresh job seed. Each cycle of
 * coldCycle plans runs every pair once in a seed-shuffled order, so
 * the mix of job costs within a cycle is the same for every seed.
 */
std::string
coldRequest(std::size_t k, std::uint64_t seed)
{
    std::vector<std::size_t> order(coldCycle);
    for (std::size_t i = 0; i < coldCycle; ++i)
        order[i] = i;
    Rng rng(seed, 0xc01d0000 + k / coldCycle);
    for (std::size_t i = coldCycle - 1; i > 0; --i)
        std::swap(order[i], order[rng.next() % (i + 1)]);
    const std::size_t pair = order[k % coldCycle];
    const std::string &name = warmBenchmarks[pair / orgNames.size()];
    const std::string &org = orgNames[pair % orgNames.size()];
    return sweepRequest("cold-" + std::to_string(k),
                        {benchmarkSpec(name, org, seed + 1 + k, daemonApw)});
}

/** A daemon over a freshly populated cache directory. */
struct Session
{
    std::string dir;
    std::unique_ptr<svc::Daemon> daemon;
    /** Warm request line -> the record lines its cold run emitted. */
    std::map<std::string, std::vector<std::string>> coldLines;
};

Session
setUpDaemon(const Options &opts, const std::string &dir,
            const std::vector<std::string> &warmLines, SpanRecorder &spans,
            Outcome &out, bool recordDigests)
{
    Session s;
    s.dir = dir;
    fs::remove_all(dir);
    svc::DaemonOptions o;
    o.cacheDir = dir;
    o.jobs = opts.workers;
    s.daemon = std::make_unique<svc::Daemon>(o);

    // Populate through the stream transport: one request per line.
    std::string input;
    for (const auto &l : warmLines)
        input += l + "\n";
    std::istringstream in(input);
    std::ostringstream os;
    {
        ScopedSpan span(spans, "Daemon::serveStream", 0, spans.newId());
        s.daemon->serveStream(in, os);
    }
    std::istringstream events(os.str());
    std::map<std::string, std::string> byId;
    for (const auto &l : warmLines)
        byId[svc::parseRequest(l).id] = l;
    for (std::string ev; std::getline(events, ev);) {
        if (!isRecordLine(ev))
            continue;
        const json::Value doc = json::parse(ev);
        s.coldLines[byId[doc.at("id").asString()]].push_back(ev);
        const RunRecord rec = result_io::recordFromValue(doc.at("record"));
        out.tally.add(rec.result.status == RunStatus::Ok,
                      "population " + rec.label);
        if (recordDigests)
            out.digests["warm:" + rec.label] =
                hex64(resultDigest(rec.result));
    }
    // Host warm-up: every warm plan once, served from the new cache.
    for (const auto &l : warmLines)
        s.daemon->handleRequest(l, [](const std::string &) {});
    return s;
}

/** Submits one plan; returns its latency, request to done, in ms. */
double
submit(svc::Daemon &daemon, const std::string &request,
       std::vector<std::string> &events)
{
    events.clear();
    const double t0 = wallNowNs();
    daemon.handleRequest(request, [&events](const std::string &l) {
        events.push_back(l);
    });
    return elapsedMs(t0);
}

std::vector<std::string>
recordLines(const std::vector<std::string> &events)
{
    std::vector<std::string> out;
    for (const auto &e : events) {
        if (isRecordLine(e))
            out.push_back(e);
    }
    return out;
}

Outcome
runDaemonCache(const Options &opts, SpanRecorder &spans)
{
    Outcome out;
    std::vector<std::string> warmLines;
    for (const auto &name : warmBenchmarks)
        warmLines.push_back(warmRequest(name, opts.seed));

    std::vector<double> setups;
    Session s;
    const int reps = opts.trace ? 1 : daemonSetupReps;
    for (int r = 0; r < reps; ++r) {
        if (s.daemon) {
            s.daemon.reset();
            fs::remove_all(s.dir);
        }
        const double t0 = wallNowNs();
        s = setUpDaemon(opts, opts.workDir + "/cache-" + std::to_string(r),
                        warmLines, spans, out, r == reps - 1);
        setups.push_back(elapsedMs(t0) / 1e3);
    }
    svc::Daemon &daemon = *s.daemon;
    svc::ResultCache probe(s.dir);
    svc::ResultCache storeProbe(opts.workDir + "/store-probe");
    Layers L;
    std::vector<double> parseUs, lookupUs, eventUs, ioUs, storeUs;
    std::vector<double> tracedMs, untracedMs;
    double planMsSum = 0, selfMsSum = 0;

    // Timed window: one client, closed loop; each round is one cold
    // plan followed by warmPerCold warm plans.
    Rng pick(opts.seed, 0xa11);
    std::vector<std::string> events;
    std::vector<double> warmMs, coldMs;
    std::vector<std::string> coldRecords;
    double coldCpuNs = 0;
    const svc::ResultCache::Stats stats0 = daemon.cache()->stats();
    const double w0 = wallNowNs();
    for (std::size_t k = 0;; ++k) {
        const std::string cold = coldRequest(k, opts.seed);
        const double c0 = cpuNowNs();
        const std::uint64_t coldGroup = spans.newId();
        {
            ScopedSpan span(spans, "Daemon::handleRequest", 0, coldGroup);
            coldMs.push_back(submit(daemon, cold, events));
        }
        coldCpuNs += cpuNowNs() - c0;
        const auto recs = recordLines(events);
        const bool framed = recs.size() == 1 && isDoneLine(events.back());
        out.tally.add(framed, "cold plan " + std::to_string(k) +
                                  " did not answer one record and done");
        coldRecords.push_back(framed ? recs.front() : std::string());

        if (opts.trace && framed) {
            // Replay the cold job's layers from outside: its store,
            // and (for the checked prefix) a direct traced run.
            const ExperimentJob job = svc::parseRequest(cold).plan[0];
            const RunRecord rec = recordOfLine(recs.front());
            {
                ScopedSpan span(spans, "ResultCache::store", 0, coldGroup);
                const double t0 = wallNowNs();
                storeProbe.store(job, rec);
                storeUs.push_back(elapsedMs(t0) * 1e3);
            }
            if (k < checkedCold) {
                const DirectRun run = runDirect(job, spans, 0);
                const bool same =
                    run.ok &&
                    resultDigest(run.result) == resultDigest(rec.result);
                out.tally.add(same, job.label + ": direct run differs "
                                                "from the daemon's");
                out.correct = out.correct && same;
                L.addDirect(run);
            }
        }

        for (int j = 0; j < warmPerCold; ++j) {
            const std::string &warm =
                warmLines[pick.next() % warmLines.size()];
            // Traced runs time every other warm plan with a span and
            // replay its layers; the rest measure the overhead.
            const bool traced = opts.trace && (j % 2 == 1);
            const std::uint64_t group = traced ? spans.newId() : 0;
            double ms = 0;
            if (traced) {
                ScopedSpan span(spans, "Daemon::handleRequest", 0, group);
                ms = submit(daemon, warm, events);
            } else {
                ms = submit(daemon, warm, events);
            }
            warmMs.push_back(ms);
            (traced ? tracedMs : untracedMs).push_back(ms);
            const bool same = !events.empty() && isDoneLine(events.back()) &&
                              recordLines(events) == s.coldLines[warm];
            out.tally.add(same, "warm plan lines differ from cold lines");
            if (!same)
                out.correct = false;
            if (!traced)
                continue;

            ScopedSpan replay(spans, "replay", 0, group);
            double covered = 0;
            svc::SweepRequest req;
            {
                ScopedSpan sp(spans, "protocol::parseRequest", replay.id(),
                              group);
                const double t0 = wallNowNs();
                req = svc::parseRequest(warm);
                parseUs.push_back(elapsedMs(t0) * 1e3);
                covered += parseUs.back() / 1e3;
            }
            for (std::size_t i = 0; i < req.plan.size(); ++i) {
                const ExperimentJob &job = req.plan[i];
                std::optional<RunRecord> rec;
                {
                    ScopedSpan sp(spans, "ResultCache::lookup", replay.id(),
                                  group);
                    const double t0 = wallNowNs();
                    rec = probe.lookup(job);
                    lookupUs.push_back(elapsedMs(t0) * 1e3);
                    covered += lookupUs.back() / 1e3;
                }
                if (!rec)
                    continue;
                rec->jobIndex = i;
                rec->label = job.label;
                rec->source = RecordSource::Cache;
                const EngineProgress ev{i + 1, req.plan.size(), job, *rec};
                {
                    ScopedSpan sp(spans, "protocol::recordEvent",
                                  replay.id(), group);
                    const double t0 = wallNowNs();
                    (void)svc::recordEvent(req, ev);
                    eventUs.push_back(elapsedMs(t0) * 1e3);
                    covered += eventUs.back() / 1e3;
                }
                ScopedSpan sp(spans, "result_io::recordToJson", replay.id(),
                              group);
                const double t0 = wallNowNs();
                (void)result_io::recordToJson(*rec);
                ioUs.push_back(elapsedMs(t0) * 1e3);
            }
            planMsSum += ms;
            selfMsSum += std::max(0.0, ms - covered);
        }
        if (k == 0) {
            const auto st = daemon.cache()->stats();
            L.cacheHits = static_cast<double>(st.hits - stats0.hits);
            L.cacheMisses = static_cast<double>(st.misses - stats0.misses);
            L.cacheRejected =
                static_cast<double>(st.rejected - stats0.rejected);
        }
        if (wallNowNs() - w0 >= opts.seconds * 1e9)
            break;
    }

    // Checks, outside the timed window.
    double coldAccesses = 0;
    std::vector<std::uint64_t> coldDigests;
    for (std::size_t k = 0; k < coldRecords.size(); ++k) {
        if (coldRecords[k].empty())
            continue;
        const RunRecord rec = recordOfLine(coldRecords[k]);
        const bool ok = rec.result.status == RunStatus::Ok;
        out.tally.add(ok, "cold " + rec.label + ": " + rec.result.diagnostic);
        coldAccesses += ok ? static_cast<double>(rec.result.accesses) : 0;
        if (k < checkedCold) {
            coldDigests.push_back(resultDigest(rec.result));
            out.digests["cold" + std::to_string(k) + ":" + rec.label] =
                hex64(coldDigests.back());
        }
    }
    if (!opts.trace)
        checkGoldens(opts, out);
    if (!opts.trace && !coldDigests.empty()) {
        Rng spot(opts.seed, 0x5eed);
        const std::size_t idx = spot.next() % coldDigests.size();
        referenceSpotCheck(
            svc::parseRequest(coldRequest(idx, opts.seed)).plan[0],
            coldDigests[idx], out);
    }

    out.report.push_back(line("warm plans", static_cast<double>(warmMs.size()),
                              "count", "5 cache hits each"));
    out.report.push_back(line("cold plans", static_cast<double>(coldMs.size()),
                              "count", "1 simulated job each"));
    if (opts.trace) {
        L.parseUs = median(parseUs);
        L.lookupUsP50 = median(lookupUs);
        L.recordEventUs = median(eventUs);
        L.resultIoUs = mean(ioUs);
        L.storeUsP50 = median(storeUs);
        L.daemonSelfShare = ratio(selfMsSum, planMsSum);
        L.traceOverhead = ratio(median(tracedMs), median(untracedMs)) - 1.0;
        out.metrics = L.metrics(clockPairNs());
        out.report.push_back(line("traced vs untraced warm p50",
                                  L.traceOverhead, "share",
                                  "alternate warm plans carry spans"));
        reportSelfTimes(spans, out);
    } else {
        out.report.push_back(line("warm_plan_ms_p50", median(warmMs), "ms",
                                  "latency_ms_mean reports the mean"));
        const auto t = tail(warmMs, 0.99);
        out.report.push_back(line("warm_plan_ms_p99", t ? t->value : 0.0,
                                  "ms", "reported as latency_ms_tail"));
        out.report.push_back(line("cold_plan_ms_p50", median(coldMs), "ms"));
        // wall_s: median over complete cycles of the cycle's mean cold
        // latency; the mean over all cold plans when no cycle completed.
        std::vector<double> cycleMs;
        for (std::size_t c = 0; (c + 1) * coldCycle <= coldMs.size(); ++c)
            cycleMs.push_back(mean(std::vector<double>(
                coldMs.begin() + static_cast<long>(c * coldCycle),
                coldMs.begin() + static_cast<long>((c + 1) * coldCycle))));
        const double coldWallMs =
            cycleMs.empty() ? mean(coldMs) : median(cycleMs);
        out.report.push_back(line("cold_cycle_ms_mean", coldWallMs, "ms",
                                  "median of " +
                                      std::to_string(cycleMs.size()) +
                                      " cycles, reported as wall_s"));
        out.metrics = endToEnd(median(setups), coldWallMs / 1e3,
                               ratio(coldCpuNs, coldAccesses), warmMs, 0.99,
                               out);
    }
    s.daemon.reset();
    fs::remove_all(s.dir);
    fs::remove_all(opts.workDir + "/store-probe");
    return out;
}

const SweepDef paperSweep{paperSweepRequest, 0.9, true};
const SweepDef tenants{tenantsRequest, 0.75, false};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"paper-sweep", "tenants",
                                                   "daemon-cache"};
    return names;
}

Outcome
runWorkload(const Options &opts, SpanRecorder &spans)
{
    if (opts.workload == "paper-sweep")
        return runSweep(paperSweep, opts, spans);
    if (opts.workload == "tenants")
        return runSweep(tenants, opts, spans);
    if (opts.workload == "daemon-cache")
        return runDaemonCache(opts, spans);
    throw std::invalid_argument("unknown workload '" + opts.workload + "'");
}

} // namespace perfbench
