/**
 * @file
 * perfbench: the repository's benchmark driver binary.
 *
 *   perfbench --workload paper-sweep|tenants|daemon-cache --seed N
 *             --seconds S --trace 0|1 [--work-dir DIR]
 *             [--goldens FILE] [--write-goldens FILE]
 *
 * Prints a human-readable report, then as its last stdout line one
 * JSON object {"correct","attempted","failed","metrics"}: the
 * end-to-end metrics untraced, the per-layer metrics with --trace 1
 * (which also writes the spans to DIR/trace-<workload>-seed<N>.json,
 * loadable in Perfetto). Exits 0 whenever a result line was printed;
 * failed jobs and failed checks are counted in it, never fatal.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench_util.hh"
#include "common/json.hh"
#include "spans.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--goldens FILE] "
                 "[--write-goldens FILE]\n";
    std::exit(2);
}

/** Merges this workload's observed digests into @p path. */
void
writeGoldens(const std::string &path, const Options &opts,
             const Outcome &out)
{
    std::map<std::string, std::map<std::string, std::string>> all;
    if (std::ifstream is(path); is) {
        std::stringstream ss;
        ss << is.rdbuf();
        const auto doc = sac::json::parse(ss.str());
        for (const auto &[w, labels] : doc.at("workloads").object) {
            for (const auto &[label, v] : labels.object)
                all[w][label] = v.asString();
        }
    }
    all[opts.workload] = out.digests;
    namespace json = sac::json;
    json::Builder workloads('{');
    for (const auto &[w, labels] : all) {
        json::Builder b('{');
        for (const auto &[label, hex] : labels)
            b.field(label, json::escape(hex));
        workloads.field(w, b.close('}'));
    }
    std::ofstream os(path);
    os << json::Builder('{')
              .field("schema", json::escape("perfbench.goldens.v1"))
              .field("seed", json::number(std::uint64_t{defaultSeed}))
              .field("workloads", workloads.close('}'))
              .close('}')
       << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    opts.workDir = ".bench_build/perfbench-run";
    opts.goldensPath = "perfbench/goldens.json";
    opts.workers =
        std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
    std::string writeGoldensPath;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string val = argv[++i];
        try {
            if (arg == "--workload") {
                opts.workload = val;
                haveWorkload = true;
            } else if (arg == "--seed") {
                opts.seed = std::stoull(val);
            } else if (arg == "--seconds") {
                opts.seconds = std::stod(val);
            } else if (arg == "--trace") {
                opts.trace = std::stoi(val) != 0;
            } else if (arg == "--work-dir") {
                opts.workDir = val;
            } else if (arg == "--goldens") {
                opts.goldensPath = val;
            } else if (arg == "--write-goldens") {
                writeGoldensPath = val;
            } else {
                usage("unknown option " + arg);
            }
        } catch (const std::logic_error &) {
            usage("bad value '" + val + "' for " + arg);
        }
    }
    const auto &names = workloadNames();
    if (!haveWorkload ||
        std::find(names.begin(), names.end(), opts.workload) == names.end())
        usage("--workload must be one of paper-sweep, tenants, daemon-cache");
    if (!(opts.seconds > 0))
        usage("--seconds must be positive");
    if (!writeGoldensPath.empty() && opts.seed != defaultSeed)
        usage("--write-goldens records the default seed only (--seed " +
              std::to_string(defaultSeed) + ")");

    try {
        std::filesystem::create_directories(opts.workDir);
        SpanRecorder spans(opts.trace);
        Outcome out = runWorkload(opts, spans);

        std::cout << "perfbench " << opts.workload << " seed " << opts.seed
                  << ", " << opts.seconds << " s, " << opts.workers
                  << " workers, " << (opts.trace ? "traced" : "untraced")
                  << "\n";
        for (const auto &l : out.report)
            std::cout << l << "\n";
        for (const auto &note : out.tally.notes())
            std::cout << "  FAILED: " << note << "\n";
        if (opts.trace) {
            const std::string path = opts.workDir + "/trace-" +
                                     opts.workload + "-seed" +
                                     std::to_string(opts.seed) + ".json";
            spans.writePerfetto(path);
            std::cout << "  spans: " << spans.size() << " written to "
                      << path << "\n";
        }
        if (!writeGoldensPath.empty())
            writeGoldens(writeGoldensPath, opts, out);
        for (const auto &m : out.metrics) {
            char buf[128];
            std::snprintf(buf, sizeof buf, "  %-34s %14.6g %s",
                          m.name.c_str(), m.value, m.unit.c_str());
            std::cout << buf << "\n";
        }
        std::cout << resultLine(out.correct, out.tally.attempted(),
                                out.tally.failed(), out.metrics)
                  << std::endl;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
