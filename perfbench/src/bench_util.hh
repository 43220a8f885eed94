/**
 * @file
 * Small, dependency-light helpers of the perfbench harness: sample
 * statistics with the "ten samples beyond" tail rule, the per-job
 * result digest the correctness check compares, failure accounting,
 * host clocks, and the one-line JSON result the harness prints last.
 */

#ifndef PERFBENCH_BENCH_UTIL_HH
#define PERFBENCH_BENCH_UTIL_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/system.hh"

namespace perfbench {

/** Samples a tail percentile must leave beyond it to be reported. */
constexpr std::size_t minBeyond = 10;

/**
 * Linear-interpolated percentile (@p p in [0, 1]) of @p samples;
 * 0 for an empty set. Takes a copy: callers keep their order.
 */
double percentile(std::vector<double> samples, double p);

double median(const std::vector<double> &samples);

/** Arithmetic mean; 0 for an empty set. */
double mean(const std::vector<double> &samples);

/**
 * The highest percentile @p n samples support under the ten-beyond
 * rule, capped at @p cap; nullopt when n <= minBeyond (no percentile
 * has ten samples beyond it).
 */
std::optional<double> highestSupportedPercentile(std::size_t n,
                                                 double cap);

/**
 * A timing tail: the requested percentile when the sample count
 * supports it, otherwise the highest one it does. @ref p says which
 * percentile @ref value is, so the report can state it.
 */
struct Tail
{
    double p = 0.0;
    double value = 0.0;
};

/** nullopt when @p samples support no tail at all. */
std::optional<Tail> tail(const std::vector<double> &samples, double want);

/**
 * FNV-1a 64 over every simulated field of @p result (organization,
 * status, cycles, counters, bandwidth split, SAC verdicts with their
 * EAB inputs, per-stream breakdowns). Doubles contribute their bit
 * patterns. Wall-clock fields and the serialized form do not take
 * part, so a results-schema change leaves digests alone while any
 * change to a simulated number moves them.
 */
std::uint64_t resultDigest(const sac::RunResult &result);

/** The digest as 16 lowercase hex digits. */
std::string hex64(std::uint64_t v);

/**
 * Attempted and failed operations of one run. A job that finishes
 * non-ok, a digest that disagrees with its golden or with the
 * reference loop, and a warm line that differs from its cold line
 * each count once as failed; every job and every check counts as
 * attempted.
 */
class FailTally
{
  public:
    /** One operation; @p ok false counts it failed. */
    void add(bool ok, const std::string &what = "");

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    /** failed / attempted; 0 when nothing was attempted. */
    double failFrac() const;
    /** The first few failure descriptions, for the report. */
    const std::vector<std::string> &notes() const { return notes_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> notes_;
};

/** Process CPU time (all threads), nanoseconds. */
double cpuNowNs();

/** Monotonic wall time, nanoseconds. */
double wallNowNs();

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * The harness's final stdout line:
 * {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
 * Values print with all their digits.
 */
std::string resultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // PERFBENCH_BENCH_UTIL_HH
