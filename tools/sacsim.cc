/**
 * @file
 * sacsim — command-line driver for the SAC multi-chip GPU simulator.
 *
 * Runs (workload, organization, configuration) experiments and prints
 * the results; the Swiss-army knife for exploring the design space
 * without writing C++. Organization sweeps execute in parallel
 * through the ExperimentEngine (--jobs), results can be exported as a
 * sac.results.v3 JSON document (--json), and runs can be traced:
 * --timeline writes epoch-sampled timelines, --trace-events writes a
 * Chrome trace (load it at https://ui.perfetto.dev) or, with a
 * .jsonl path, a JSONL event stream.
 *
 * Sweeps are fault tolerant: a failing job is reported with a status
 * and diagnostic instead of killing the sweep (exit code 2 flags it),
 * and per-job watchdogs bound runaway simulations (--max-cycles,
 * --max-wall-ms). --cache DIR stores every ok result as it completes,
 * so rerunning an interrupted sweep with the same --cache simulates
 * only what's missing.
 *
 *   sacsim --list
 *   sacsim --benchmark CFD --org sac
 *   sacsim --benchmark CFD --org all --jobs 4 --json cfd.json
 *   sacsim --benchmark CFD --org all --jobs 4 --cache cache.d
 *   sacsim --benchmark CFD --org sac --timeline t.json --trace-events e.json
 *   sacsim --benchmark GEMM --org mem,sac --scale 4 --input-scale 0.125
 *   sacsim --benchmark RN --org sm --coherence hw --sectors 4 --stats
 *   sacsim --benchmark SN --org sac --record sn.trace
 *   sacsim --trace sn.trace --org mem --apw 256
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "common/json.hh"
#include "common/log.hh"
#include "service/result_cache.hh"
#include "sim/plan.hh"
#include "sim/report.hh"
#include "sim/result_io.hh"
#include "sim/system.hh"
#include "telemetry/export.hh"
#include "workload/suite.hh"
#include "workload/trace_file.hh"
#include "workload/tracegen.hh"

namespace {

using namespace sac;

struct Options
{
    std::string benchmark = "CFD";
    std::string scenarioPath;
    std::string org = "all";
    int scale = 4;
    std::uint64_t seed = 1;
    double inputScale = 1.0;
    std::string coherence = "sw";
    unsigned sectors = 1;
    double interChipBw = 0.0;    // 0 = config default
    Cycle occupancyInterval = 0; // 0 = config default (2048)
    unsigned jobs = 1;
    std::string jsonPath;
    bool stats = false;
    bool list = false;
    std::string recordPath;
    std::string tracePath;
    std::uint64_t apw = 0; // 0 = profile default
    std::string timelinePath;
    std::string traceEventsPath;
    Cycle epoch = 0; // 0 = default (2048) when --timeline is given
    bool fastForward = true;
    std::string cachePath;
    Cycle maxCycles = 0;    // 0 = no cycle deadline
    double maxWallMs = 0.0; // 0 = no wall-clock deadline
};

/** Telemetry the requested outputs imply. */
telemetry::Options
telemetryOptions(const Options &o)
{
    telemetry::Options t;
    if (!o.timelinePath.empty() || o.epoch > 0)
        t.epoch = o.epoch > 0 ? o.epoch : 2048;
    t.events = !o.traceEventsPath.empty();
    return t;
}

[[noreturn]] void
usage(int code)
{
    std::cout <<
        "usage: sacsim [options]\n"
        "  --list                 print the Table 4 benchmark suite\n"
        "  --benchmark NAME       workload to run (default CFD)\n"
        "  --scenario FILE        run a multi-tenant scenario "
        "(sac.scenario.v1\n"
        "                         JSON; replaces --benchmark, see "
        "examples/)\n"
        "  --org KINDS            comma-separated list of\n"
        "                         mem|sm|static|dynamic|sac, or 'all'\n"
        "                         (default all; e.g. --org mem,sac)\n"
        "  --jobs N               run the sweep on N worker threads\n"
        "                         (0 = all hardware threads, default 1)\n"
        "  --json FILE            write results as JSON ('-' = stdout)\n"
        "  --scale N              topology divisor: 1=paper machine "
        "(default 4)\n"
        "  --seed N               experiment seed (default 1)\n"
        "  --input-scale F        multiply the data set (Fig. 13 axis)\n"
        "  --coherence sw|hw      LLC coherence (default sw)\n"
        "  --sectors N            sectors per line: 1|2|4 (default 1)\n"
        "  --interchip-bw GBPS    per-chip inter-chip bandwidth "
        "override\n"
        "  --occupancy-interval N cycles between Fig. 9 LLC occupancy\n"
        "                         samples (default 2048)\n"
        "  --apw N                accesses per warp per kernel "
        "override\n"
        "  --record FILE          record the generated trace to FILE\n"
        "  --trace FILE           replay FILE instead of a synthetic "
        "workload\n"
        "  --stats                dump the full per-chip stats tree\n"
        "  --timeline FILE        write epoch-sampled timelines "
        "(sac.timeline.v1 JSON)\n"
        "  --trace-events FILE    write simulation events as a Chrome "
        "trace\n"
        "                         (Perfetto-loadable; a .jsonl path "
        "writes JSONL)\n"
        "  --epoch N              telemetry sampling epoch in cycles\n"
        "                         (default 2048 when --timeline is "
        "given)\n"
        "  --no-fast-forward      force the per-cycle reference loop\n"
        "                         (results are bit-identical either "
        "way;\n"
        "                         this is the differential-testing "
        "hatch)\n"
        "  --cache DIR            serve identical jobs from the\n"
        "                         persistent result cache in DIR and\n"
        "                         add fresh results to it; rerun an\n"
        "                         interrupted sweep with the same DIR\n"
        "                         to resume it\n"
        "  --max-cycles N         fail a job past N simulated cycles\n"
        "  --max-wall-ms X        fail a job past X wall-clock ms\n";
    std::exit(code);
}

/** "all" or a comma-separated subset, e.g. "mem,sac". */
std::vector<OrgKind>
parseOrgList(const std::string &spec)
{
    if (spec == "all")
        return ExperimentPlan::allOrganizations();
    std::vector<OrgKind> kinds;
    std::size_t start = 0;
    while (start <= spec.size()) {
        const std::size_t comma = spec.find(',', start);
        const std::string item =
            spec.substr(start, comma == std::string::npos
                                   ? std::string::npos
                                   : comma - start);
        if (item.empty())
            fatal("empty entry in --org list '", spec, "'");
        kinds.push_back(orgKindFromName(item));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return kinds;
}

/**
 * Parses @p text, the value given to @p flag, as a T the way the
 * std::sto* family does; a value it rejects names the flag.
 */
template <typename T>
T
number(const std::string &flag, const std::string &text)
{
    try {
        if constexpr (std::is_floating_point_v<T>)
            return static_cast<T>(std::stod(text));
        else if constexpr (std::is_signed_v<T>)
            return static_cast<T>(std::stoi(text));
        else
            return static_cast<T>(std::stoull(text));
    } catch (const std::invalid_argument &) {
        fatal("invalid value '", text, "' for ", flag);
    } catch (const std::out_of_range &) {
        fatal("value '", text, "' for ", flag, " is out of range");
    }
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h")
            usage(0);
        else if (arg == "--list")
            o.list = true;
        else if (arg == "--benchmark")
            o.benchmark = value();
        else if (arg == "--scenario")
            o.scenarioPath = value();
        else if (arg == "--org")
            o.org = value();
        else if (arg == "--jobs")
            o.jobs = number<unsigned>(arg, value());
        else if (arg == "--json")
            o.jsonPath = value();
        else if (arg == "--scale")
            o.scale = number<int>(arg, value());
        else if (arg == "--seed")
            o.seed = number<std::uint64_t>(arg, value());
        else if (arg == "--input-scale")
            o.inputScale = number<double>(arg, value());
        else if (arg == "--coherence")
            o.coherence = value();
        else if (arg == "--sectors")
            o.sectors = number<unsigned>(arg, value());
        else if (arg == "--interchip-bw")
            o.interChipBw = number<double>(arg, value());
        else if (arg == "--occupancy-interval")
            o.occupancyInterval = number<Cycle>(arg, value());
        else if (arg == "--apw")
            o.apw = number<std::uint64_t>(arg, value());
        else if (arg == "--record")
            o.recordPath = value();
        else if (arg == "--trace")
            o.tracePath = value();
        else if (arg == "--stats")
            o.stats = true;
        else if (arg == "--timeline")
            o.timelinePath = value();
        else if (arg == "--trace-events")
            o.traceEventsPath = value();
        else if (arg == "--epoch")
            o.epoch = number<Cycle>(arg, value());
        else if (arg == "--no-fast-forward")
            o.fastForward = false;
        else if (arg == "--cache")
            o.cachePath = value();
        else if (arg == "--max-cycles")
            o.maxCycles = number<Cycle>(arg, value());
        else if (arg == "--max-wall-ms")
            o.maxWallMs = number<double>(arg, value());
        else
            fatal("unknown option '", arg, "' (try --help)");
    }
    return o;
}

void
listSuite()
{
    report::Table t({"name", "group", "CTAs", "footprint MB",
                     "true-shared MB", "false-shared MB", "kernels"});
    for (const auto &p : benchmarkSuite()) {
        t.addRow({p.name, p.smSidePreferred ? "SP" : "MP",
                  std::to_string(p.ctas), report::num(p.footprintMB, 0),
                  report::num(p.trueSharedMB, 0),
                  report::num(p.falseSharedMB, 0),
                  std::to_string(p.numKernels)});
    }
    t.print(std::cout);
}

/**
 * Serial path for the modes the engine cannot parallelize: trace
 * record/replay (a shared file is inherently ordered) and --stats
 * (needs the live System after the run).
 */
RunResult
runOne(const Options &o, const GpuConfig &cfg,
       const WorkloadProfile &profile, OrgKind kind, bool dump_stats)
{
    std::unique_ptr<TraceSource> source;
    std::unique_ptr<std::ofstream> record;
    std::unique_ptr<SharingTraceGen> gen;

    if (!o.tracePath.empty()) {
        source = std::make_unique<TraceFileSource>(
            TraceFileSource::fromFile(o.tracePath));
    } else {
        gen = std::make_unique<SharingTraceGen>(
            profile.scaledData(dataScale(cfg)), cfg, o.seed);
        if (!o.recordPath.empty()) {
            record = std::make_unique<std::ofstream>(o.recordPath);
            if (!*record)
                fatal("cannot open '", o.recordPath, "' for writing");
            source = std::make_unique<TraceRecorder>(*gen, *record);
        }
    }
    TraceSource &trace = source ? *source : *gen;

    System system(cfg, kind, trace);
    system.setFastForward(o.fastForward);
    const auto topts = telemetryOptions(o);
    if (topts.enabled())
        system.enableTelemetry(topts);
    const auto result =
        system.run(kernelsFor(profile.scaledData(dataScale(cfg))));
    if (dump_stats)
        system.dumpStats(std::cout);
    return result;
}

/** True when the request needs the serial single-System path. */
bool
needsSerialPath(const Options &o, std::size_t num_orgs)
{
    return !o.tracePath.empty() || !o.recordPath.empty() ||
           (o.stats && num_orgs == 1);
}

void
printRecords(const std::vector<RunRecord> &records)
{
    // Baseline for speedups: the first row that actually ran (a
    // failed row has no cycle count to compare against).
    std::optional<RunResult> baseline;
    report::Table t({"organization", "status", "cycles", "speedup",
                     "LLC miss", "eff LLC BW", "remote frac",
                     "avg load lat", "wall ms"});
    for (const auto &rec : records) {
        const auto &r = rec.result;
        if (r.status != RunStatus::Ok) {
            t.addRow({r.organization, toString(r.status), "-", "-", "-",
                      "-", "-", "-", report::num(rec.wallMs, 0)});
            continue;
        }
        if (!baseline)
            baseline = r;
        t.addRow({r.organization, toString(r.status),
                  std::to_string(r.cycles),
                  report::times(speedup(*baseline, r)),
                  report::percent(r.llcMissRate()),
                  report::num(r.effLlcBw),
                  report::percent(r.llcRemoteFraction),
                  report::num(r.avgLoadLatency, 0),
                  report::num(rec.wallMs, 0)});
    }
    for (const auto &rec : records) {
        if (rec.result.status != RunStatus::Ok) {
            std::cerr << rec.label << ": " << toString(rec.result.status)
                      << ": " << rec.result.diagnostic << "\n";
        }
    }
    for (const auto &rec : records) {
        for (const auto &d : rec.result.sacDecisions) {
            std::cout << "SAC kernel " << d.kernel << " -> "
                      << toString(d.chosen) << "\n";
        }
    }
    t.print(std::cout);

    // Scenario runs: the per-stream breakdown under the machine table.
    bool any_streams = false;
    for (const auto &rec : records)
        any_streams = any_streams || !rec.result.streams.empty();
    if (!any_streams)
        return;
    report::Table st({"organization", "stream", "launch", "finish",
                      "kernels", "LLC hit", "avg load lat",
                      "flush stall"});
    for (const auto &rec : records) {
        for (const auto &s : rec.result.streams) {
            const double hit_rate =
                s.llcRequests
                    ? static_cast<double>(s.llcHits) /
                          static_cast<double>(s.llcRequests)
                    : 0.0;
            st.addRow({rec.result.organization,
                       std::to_string(s.stream) + ":" + s.name,
                       std::to_string(s.launchCycle),
                       std::to_string(s.finishCycle),
                       std::to_string(s.kernelCycles.size()),
                       report::percent(hit_rate),
                       report::num(s.avgLoadLatency, 0),
                       std::to_string(s.flushStallCycles)});
        }
    }
    std::cout << "\n";
    st.print(std::cout);
}

std::ofstream
openOut(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open '", path, "' for writing");
    return out;
}

/**
 * --timeline: one sac.timeline.v1 document holding every record's
 * timeline (events included), keyed by the record label.
 */
void
writeTimelines(const std::string &path,
               const std::vector<RunRecord> &records)
{
    json::Builder timelines('[');
    std::size_t written = 0;
    for (const auto &rec : records) {
        if (!rec.result.timeline)
            continue;
        json::Builder entry('{');
        entry.field("label", json::escape(rec.label))
            .field("timeline", telemetry::toJson(*rec.result.timeline));
        timelines.item(entry.close('}'));
        ++written;
    }
    json::Builder doc('{');
    doc.field("schema", json::escape("sac.timeline.v1"))
        .field("timelines", timelines.close(']'));

    auto out = openOut(path);
    out << doc.close('}') << "\n";
    std::cerr << "wrote " << written << " timeline(s) to " << path << "\n";
}

/**
 * --trace-events: a combined Chrome trace with one Perfetto process
 * per record, or a JSONL event stream when the path ends in .jsonl.
 */
void
writeTraceEvents(const std::string &path,
                 const std::vector<RunRecord> &records)
{
    const bool jsonl = path.size() >= 6 &&
                       path.compare(path.size() - 6, 6, ".jsonl") == 0;
    auto out = openOut(path);
    if (jsonl) {
        for (const auto &rec : records) {
            if (rec.result.timeline)
                telemetry::writeJsonl(out, *rec.result.timeline,
                                      rec.label);
        }
    } else {
        std::vector<telemetry::TraceRun> runs;
        for (const auto &rec : records) {
            if (rec.result.timeline)
                runs.emplace_back(rec.label, &*rec.result.timeline);
        }
        telemetry::writeChromeTrace(out, runs);
    }
    std::cerr << "wrote trace events to " << path << "\n";
}

int
run(const Options &o)
{
    if (o.list) {
        listSuite();
        return 0;
    }

    if (o.coherence != "sw" && o.coherence != "hw")
        fatal("--coherence must be sw or hw, not '", o.coherence, "'");
    GpuConfig cfg = GpuConfig::scaled(o.scale);
    cfg.seed = o.seed;
    cfg.coherence =
        o.coherence == "hw" ? CoherenceKind::Hardware
                            : CoherenceKind::Software;
    cfg.sectorsPerLine = o.sectors;
    if (o.interChipBw > 0.0)
        cfg.interChipBw = o.interChipBw;
    if (o.occupancyInterval > 0)
        cfg.occupancyInterval = o.occupancyInterval;
    cfg.validate();

    std::optional<Scenario> scenario;
    if (!o.scenarioPath.empty()) {
        // The engine path only: the serial single-System modes have no
        // scenario plumbing. Per-stream inputScale/apw live in the
        // scenario file, so the global knobs are rejected as ambiguous.
        if (!o.tracePath.empty() || !o.recordPath.empty() || o.stats) {
            fatal("--scenario cannot be combined with --trace, "
                  "--record or --stats");
        }
        if (o.apw > 0) {
            fatal("--apw does not apply to scenarios; set \"apw\" on "
                  "each stream in ", o.scenarioPath);
        }
        scenario = scenarioFromFile(o.scenarioPath);
    }

    WorkloadProfile profile = findBenchmark(o.benchmark);
    profile = profile.withInputScale(o.inputScale);
    if (o.apw > 0) {
        for (auto &phase : profile.phases)
            phase.accessesPerWarp = o.apw;
    }

    if (scenario) {
        std::cout << "scenario " << scenario->name() << " ("
                  << scenario->streams.size() << " stream(s)) on "
                  << cfg.summary() << "\n\n";
    } else {
        std::cout << "workload " << profile.name << " (x" << o.inputScale
                  << ") on " << cfg.summary() << "\n\n";
    }

    const std::vector<OrgKind> kinds = parseOrgList(o.org);
    const telemetry::Options topts = telemetryOptions(o);
    const bool serial = needsSerialPath(o, kinds.size());
    if (serial && !o.cachePath.empty()) {
        fatal("--cache requires the engine path; it cannot be "
              "combined with --trace, --record or single-org "
              "--stats");
    }

    // --json opens its file before anything simulates, so an
    // unwritable path fails fast; the document is written once the
    // records are in hand.
    std::ofstream json_file;
    if (!o.jsonPath.empty() && o.jsonPath != "-")
        json_file = openOut(o.jsonPath);

    std::vector<RunRecord> records;
    if (serial) {
        for (const auto kind : kinds) {
            const bool dump = o.stats && kinds.size() == 1;
            const auto t0 = std::chrono::steady_clock::now();
            RunRecord rec;
            rec.jobIndex = records.size();
            rec.label = profile.name + std::string("/") + toString(kind);
            rec.benchmark = profile.name;
            rec.seed = o.seed;
            rec.result = runOne(o, cfg, profile, kind, dump);
            rec.wallMs = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
            records.push_back(std::move(rec));
        }
    } else {
        ExperimentPlan plan;
        if (scenario) {
            for (const auto kind : kinds) {
                ExperimentJob job;
                job.scenario = *scenario;
                job.config = cfg;
                job.org = kind;
                job.seed = o.seed;
                plan.add(std::move(job));
            }
        } else {
            plan.addOrgSweep(profile, cfg, kinds, o.seed);
        }
        plan.setFastForward(o.fastForward);
        if (topts.enabled())
            plan.enableTelemetry(topts);
        RunLimits limits;
        limits.maxCycles = o.maxCycles;
        limits.maxWallMs = o.maxWallMs;
        if (limits.any())
            plan.setLimits(limits);
        ExperimentEngine engine(o.jobs);
        engine.onProgress([](const EngineProgress &p) {
            std::cerr << "  [" << p.completed << "/" << p.total << "] "
                      << p.job.label << "\n";
        });

        std::optional<service::ResultCache> cache;
        if (!o.cachePath.empty()) {
            cache.emplace(o.cachePath);
            engine.setCache(&*cache);
        }

        EngineTelemetry engine_tm;
        records = engine.run(plan, &engine_tm);
        if (engine_tm.workers > 1 || cache) {
            std::cerr << "engine: " << engine_tm.workers << " worker(s), "
                      << report::num(engine_tm.wallMs, 0) << " ms wall, "
                      << report::percent(engine_tm.utilization())
                      << " utilization";
            if (cache) {
                std::cerr << ", cache " << engine_tm.cacheHits
                          << " hit(s) / " << engine_tm.cacheMisses
                          << " miss(es)";
            }
            std::cerr << "\n";
        }
    }

    if (!o.jsonPath.empty()) {
        if (o.jsonPath == "-") {
            result_io::write(std::cout, records);
        } else {
            result_io::write(json_file, records);
            std::cerr << "wrote " << records.size() << " result(s) to "
                      << o.jsonPath << "\n";
        }
    }
    printRecords(records);

    if (!o.timelinePath.empty())
        writeTimelines(o.timelinePath, records);
    if (!o.traceEventsPath.empty())
        writeTraceEvents(o.traceEventsPath, records);

    // Exit 2: the sweep completed but at least one job did not.
    for (const auto &rec : records) {
        if (rec.result.status != RunStatus::Ok)
            return 2;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parse(argc, argv));
    } catch (const std::exception &e) {
        std::cerr << "sacsim: " << e.what() << "\n";
        return 1;
    }
}
