#include "bench_util.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>

#include "common/json.hh"

namespace perfbench {

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos = std::clamp(p, 0.0, 1.0) *
                       static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double
median(const std::vector<double> &samples)
{
    return percentile(samples, 0.5);
}

double
mean(const std::vector<double> &samples)
{
    double sum = 0.0;
    for (const double v : samples)
        sum += v;
    return samples.empty() ? 0.0
                           : sum / static_cast<double>(samples.size());
}

std::optional<double>
highestSupportedPercentile(std::size_t n, double cap)
{
    // n * (1 - p) samples lie beyond quantile p.
    if (n <= minBeyond)
        return std::nullopt;
    const double p = 1.0 - static_cast<double>(minBeyond) /
                               static_cast<double>(n);
    return std::min(p, cap);
}

std::optional<Tail>
tail(const std::vector<double> &samples, double want)
{
    const auto p = highestSupportedPercentile(samples.size(), want);
    if (!p)
        return std::nullopt;
    return Tail{*p, percentile(samples, *p)};
}

namespace {

class Fnv
{
  public:
    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ull;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }
    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
    template <typename T>
    void
    cycles(const std::vector<T> &v)
    {
        u64(v.size());
        for (const T c : v)
            u64(static_cast<std::uint64_t>(c));
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void
hashDecisions(Fnv &h, const std::vector<sac::SacDecision> &decisions)
{
    h.u64(decisions.size());
    for (const auto &d : decisions) {
        h.u64(static_cast<std::uint64_t>(d.kernel));
        h.u64(static_cast<std::uint64_t>(d.chosen));
        h.f64(d.eab.memSide.local);
        h.f64(d.eab.memSide.remote);
        h.f64(d.eab.smSide.local);
        h.f64(d.eab.smSide.remote);
        h.f64(d.inputs.rLocal);
        h.f64(d.inputs.lsuMem);
        h.f64(d.inputs.lsuSm);
        h.f64(d.inputs.hitMem);
        h.f64(d.inputs.hitSm);
    }
}

} // namespace

std::uint64_t
resultDigest(const sac::RunResult &r)
{
    Fnv h;
    h.str(r.organization);
    h.u64(static_cast<std::uint64_t>(r.status));
    h.u64(r.cycles);
    h.cycles(r.kernelCycles);
    h.u64(r.accesses);
    h.u64(r.l1Hits);
    h.u64(r.l1Misses);
    h.u64(r.llcRequests);
    h.u64(r.llcHits);
    h.f64(r.effLlcBw);
    h.f64(r.bwLocalLlc);
    h.f64(r.bwRemoteLlc);
    h.f64(r.bwLocalMem);
    h.f64(r.bwRemoteMem);
    h.f64(r.llcRemoteFraction);
    h.f64(r.avgLoadLatency);
    h.u64(r.icnBytes);
    h.u64(r.dramBytes);
    h.u64(r.invalidations);
    h.u64(static_cast<std::uint64_t>(r.reconfigurations));
    h.u64(r.flushStallCycles);
    hashDecisions(h, r.sacDecisions);
    h.u64(r.streams.size());
    for (const auto &s : r.streams) {
        h.u64(static_cast<std::uint64_t>(s.stream));
        h.str(s.name);
        h.u64(s.launchCycle);
        h.u64(s.finishCycle);
        h.cycles(s.kernelCycles);
        h.u64(s.accesses);
        h.u64(s.l1Hits);
        h.u64(s.l1Misses);
        h.u64(s.llcRequests);
        h.u64(s.llcHits);
        h.f64(s.avgLoadLatency);
        h.u64(s.flushStallCycles);
        hashDecisions(h, s.sacDecisions);
    }
    return h.value();
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
FailTally::add(bool ok, const std::string &what)
{
    ++attempted_;
    if (ok)
        return;
    ++failed_;
    if (notes_.size() < 8 && !what.empty())
        notes_.push_back(what);
}

double
FailTally::failFrac() const
{
    return attempted_ ? static_cast<double>(failed_) /
                            static_cast<double>(attempted_)
                      : 0.0;
}

double
cpuNowNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e9 +
           static_cast<double>(ts.tv_nsec);
}

double
wallNowNs()
{
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    namespace json = sac::json;
    json::Builder m('{');
    for (const auto &metric : metrics) {
        m.field(metric.name, json::Builder('{')
                                 .field("value", json::number(metric.value))
                                 .field("unit", json::escape(metric.unit))
                                 .close('}'));
    }
    return json::Builder('{')
        .field("correct", correct ? "true" : "false")
        .field("attempted", json::number(attempted))
        .field("failed", json::number(failed))
        .field("metrics", m.close('}'))
        .close('}');
}

} // namespace perfbench
