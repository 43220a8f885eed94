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
 * Chrome trace (load it at https://ui.perfetto.dev), and --stats
 * prints every simulated job's full counter tree.
 *
 * The workload and machine flags fill a JobSpec that addJobs()
 * (sim/plan.hh) reads, the same reader a sacsimd request's job specs
 * go through, so both accept the same values; its errors name the
 * flag.
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
 *   sacsim --benchmark RN --org mem,sm --coherence hw --sectors 4 --stats
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "cli.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "service/result_cache.hh"
#include "sim/engine.hh"
#include "sim/plan.hh"
#include "sim/report.hh"
#include "sim/result_io.hh"
#include "sim/system.hh"
#include "telemetry/export.hh"
#include "workload/suite.hh"

namespace {

using namespace sac;
using cli::number;

struct Options
{
    /** The workload and machine flags; addJobs() checks them. */
    JobSpec spec;
    std::string scenarioPath;
    unsigned jobs = 1;
    std::string jsonPath;
    bool stats = false;
    bool list = false;
    std::string timelinePath;
    std::string traceEventsPath;
    Cycle epoch = 0; // 0 = default (2048) when --timeline is given
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
        "                         JSON; replaces --benchmark, and each\n"
        "                         stream sets its own input scale and\n"
        "                         apw; see examples/)\n"
        "  --org KINDS            'all' or a comma-separated list of\n"
        "                         mem|sm|static|dynamic|sac, as in a\n"
        "                         sacsimd job spec's \"org\"\n"
        "                         (default all; e.g. --org mem,sac)\n"
        "  --jobs N               run the sweep on N worker threads\n"
        "                         (0 = all hardware threads, default 1)\n"
        "  --json FILE            write results as JSON ('-' = stdout)\n"
        "  --scale N              topology divisor 1|2|4|8|16; 1 = the\n"
        "                         paper machine (default 4)\n"
        "  --seed N               experiment seed (default 1)\n"
        "  --input-scale F        multiply the data set, 1e-6..1024\n"
        "                         (Fig. 13 axis)\n"
        "  --coherence sw|hw      LLC coherence (default sw)\n"
        "  --sectors N            sectors per line: 1|2|4 (default 1)\n"
        "  --interchip-bw GBPS    per-chip inter-chip bandwidth "
        "override,\n"
        "                         0..1e9 (0 = config default)\n"
        "  --apw N                accesses per warp per kernel "
        "override,\n"
        "                         0..2^30 (0 = profile default)\n"
        "  --stats                dump each simulated job's per-chip\n"
        "                         stats tree (not with --cache)\n"
        "  --timeline FILE        write epoch-sampled timelines "
        "(sac.timeline.v1 JSON)\n"
        "  --trace-events FILE    write simulation events as a Chrome "
        "trace\n"
        "                         (Perfetto-loadable)\n"
        "  --epoch N              telemetry sampling epoch in cycles\n"
        "                         (default 2048 when --timeline is "
        "given)\n"
        "  --cache DIR            serve identical jobs from the\n"
        "                         persistent result cache in DIR and\n"
        "                         add fresh results to it; rerun an\n"
        "                         interrupted sweep with the same DIR\n"
        "                         to resume it\n"
        "  --max-cycles N         fail a job past N simulated cycles\n"
        "  --max-wall-ms X        fail a job past X wall-clock ms\n";
    std::exit(code);
}

/** sacsim's flag for each job-spec field, named in addJobs() errors. */
std::string
flagOf(const std::string &key)
{
    static const std::map<std::string, std::string> flags = {
        {"benchmark", "--benchmark"},     {"scenario", "--scenario"},
        {"org", "--org"},                 {"seed", "--seed"},
        {"scale", "--scale"},             {"inputScale", "--input-scale"},
        {"coherence", "--coherence"},     {"sectors", "--sectors"},
        {"interChipBw", "--interchip-bw"}, {"apw", "--apw"}};
    return flags.at(key);
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
            o.spec.benchmark = value();
        else if (arg == "--scenario")
            o.scenarioPath = value();
        else if (arg == "--org")
            o.spec.org = value();
        else if (arg == "--jobs")
            o.jobs = number<unsigned>(arg, value());
        else if (arg == "--json")
            o.jsonPath = value();
        else if (arg == "--scale")
            o.spec.scale = number<std::uint64_t>(arg, value());
        else if (arg == "--seed")
            o.spec.seed = number<std::uint64_t>(arg, value());
        else if (arg == "--input-scale")
            o.spec.inputScale = number<double>(arg, value());
        else if (arg == "--coherence")
            o.spec.coherence = value();
        else if (arg == "--sectors")
            o.spec.sectors = number<std::uint64_t>(arg, value());
        else if (arg == "--interchip-bw")
            o.spec.interChipBw = number<double>(arg, value());
        else if (arg == "--apw")
            o.spec.apw = number<std::uint64_t>(arg, value());
        else if (arg == "--stats")
            o.stats = true;
        else if (arg == "--timeline")
            o.timelinePath = value();
        else if (arg == "--trace-events")
            o.traceEventsPath = value();
        else if (arg == "--epoch")
            o.epoch = number<Cycle>(arg, value());
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
 * per record.
 */
void
writeTraceEvents(const std::string &path,
                 const std::vector<RunRecord> &records)
{
    auto out = openOut(path);
    std::vector<telemetry::TraceRun> runs;
    for (const auto &rec : records) {
        if (rec.result.timeline)
            runs.emplace_back(rec.label, &*rec.result.timeline);
    }
    telemetry::writeChromeTrace(out, runs);
    std::cerr << "wrote trace events to " << path << "\n";
}

int
run(const Options &o)
{
    if (o.list) {
        listSuite();
        return 0;
    }
    if (o.stats && !o.cachePath.empty()) {
        fatal("--stats cannot be combined with --cache: a cached result "
              "has no simulated machine to dump");
    }

    JobSpec spec = o.spec;
    if (!o.scenarioPath.empty())
        spec.scenario = scenarioFromFile(o.scenarioPath);
    else if (!spec.benchmark)
        spec.benchmark = "CFD";
    ExperimentPlan plan;
    addJobs(plan, spec, flagOf);

    const ExperimentJob &first = plan[0];
    if (first.hasScenario()) {
        std::cout << "scenario " << first.scenario.name() << " ("
                  << first.scenario.streams.size() << " stream(s)) on "
                  << first.config.summary() << "\n\n";
    } else {
        std::cout << "workload " << first.profile.name << " (x"
                  << spec.inputScale.value_or(1.0) << ") on "
                  << first.config.summary() << "\n\n";
    }

    // --json opens its file before anything simulates, so an
    // unwritable path fails fast; the document is written once the
    // records are in hand.
    std::ofstream json_file;
    if (!o.jsonPath.empty() && o.jsonPath != "-")
        json_file = openOut(o.jsonPath);

    const telemetry::Options topts = telemetryOptions(o);
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

    // --stats: each simulated job dumps its counters into its own
    // slot on its worker; the blocks print in plan order below.
    std::vector<std::string> stats(plan.size());
    if (o.stats) {
        engine.onSystem([&stats](std::size_t index, const System &system) {
            std::ostringstream os;
            system.dumpStats(os);
            stats[index] = os.str();
        });
    }

    std::optional<service::ResultCache> cache;
    if (!o.cachePath.empty()) {
        cache.emplace(o.cachePath);
        engine.setCache(&*cache);
    }

    EngineTelemetry engine_tm;
    const std::vector<RunRecord> records = engine.run(plan, &engine_tm);
    if (engine_tm.workers > 1 || cache) {
        std::cerr << "engine: " << engine_tm.workers << " worker(s), "
                  << report::num(engine_tm.wallMs, 0) << " ms wall, "
                  << report::percent(engine_tm.utilization())
                  << " utilization";
        if (cache) {
            std::cerr << ", cache " << engine_tm.cacheHits << " hit(s) / "
                      << engine_tm.cacheMisses << " miss(es)";
        }
        std::cerr << "\n";
    }

    for (std::size_t i = 0; i < records.size(); ++i) {
        if (!stats[i].empty())
            std::cout << "# " << records[i].label << "\n" << stats[i];
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
