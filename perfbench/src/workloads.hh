/**
 * @file
 * The benchmark's three workloads. Each one sets up (several times,
 * reporting the median), measures a closed loop for the requested
 * number of seconds, then checks the outputs outside the timed
 * window. With tracing on it instead measures the per-layer split by
 * timing calls into the library's public API from the harness side.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "spans.hh"

namespace perfbench {

/** The seed whose per-job digests are committed in goldens.json. */
constexpr std::uint64_t defaultSeed = 1;

struct Options
{
    std::string workload;
    std::uint64_t seed = defaultSeed;
    double seconds = 10.0;
    bool trace = false;
    /** Worker threads for every engine and the daemon: min(4, nproc). */
    unsigned workers = 4;
    /** Scratch directory for cache entries and the trace file. */
    std::string workDir;
    /** Committed digests; checked only when seed == defaultSeed. */
    std::string goldensPath;
};

/** Everything one workload run reports. */
struct Outcome
{
    FailTally tally;
    /** False when any correctness check failed. */
    bool correct = true;
    /** End-to-end metrics (untraced) or per-layer metrics (traced). */
    std::vector<Metric> metrics;
    /** Human-readable report lines printed above the result line. */
    std::vector<std::string> report;
    /** Observed per-job digests by label (regenerates goldens). */
    std::map<std::string, std::string> digests;
};

/** Names accepted by runWorkload, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Runs @p opts.workload; throws std::invalid_argument when unknown. */
Outcome runWorkload(const Options &opts, SpanRecorder &spans);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
