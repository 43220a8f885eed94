#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <unordered_map>

#include "bench_util.hh"
#include "common/json.hh"

namespace perfbench {

std::uint64_t
SpanRecorder::newId()
{
    if (!enabled_)
        return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    return ++nextId_;
}

void
SpanRecorder::add(Span span)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::size_t
SpanRecorder::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::map<std::string, LayerTime>
SpanRecorder::selfTimes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::unordered_map<std::uint64_t, std::vector<const Span *>> children;
    for (const Span &s : spans_) {
        if (s.parent)
            children[s.parent].push_back(&s);
    }
    std::map<std::string, LayerTime> out;
    for (const Span &s : spans_) {
        // Union of the children's intervals, clipped to this span.
        std::vector<std::pair<double, double>> iv;
        if (const auto it = children.find(s.id); it != children.end()) {
            for (const Span *c : it->second) {
                const double a = std::max(c->startNs, s.startNs);
                const double b = std::min(c->endNs, s.endNs);
                if (b > a)
                    iv.emplace_back(a, b);
            }
        }
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double reach = s.startNs;
        for (const auto &[a, b] : iv) {
            const double from = std::max(a, reach);
            if (b > from)
                covered += b - from;
            reach = std::max(reach, b);
        }
        LayerTime &lt = out[s.name];
        ++lt.spans;
        lt.totalNs += s.endNs - s.startNs;
        lt.selfNs += s.endNs - s.startNs - covered;
    }
    return out;
}

void
SpanRecorder::writePerfetto(const std::string &path) const
{
    namespace json = sac::json;
    std::lock_guard<std::mutex> lock(mutex_);
    double origin = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (i == 0 || spans_[i].startNs < origin)
            origin = spans_[i].startNs;
    }
    std::ofstream os(path);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const Span &s : spans_) {
        json::Builder args('{');
        args.field("id", json::number(s.id))
            .field("parent", json::number(s.parent))
            .field("group", json::number(s.group));
        for (const auto &[name, value] : s.counts)
            args.field(name, json::number(value));
        const std::string ev =
            json::Builder('{')
                .field("name", json::escape(s.name))
                .field("cat", json::escape("perfbench"))
                .field("ph", json::escape("X"))
                .field("ts", json::number((s.startNs - origin) / 1e3))
                .field("dur", json::number((s.endNs - s.startNs) / 1e3))
                .field("pid", "1")
                .field("tid", json::number(std::uint64_t{s.tid}))
                .field("args", args.close('}'))
                .close('}');
        os << (first ? "" : ",\n") << ev;
        first = false;
    }
    os << "]}\n";
}

ScopedSpan::ScopedSpan(SpanRecorder &rec, std::string name,
                       std::uint64_t parent, std::uint64_t group,
                       unsigned tid)
    : rec_(rec)
{
    if (!rec_.enabled())
        return;
    span_.id = rec_.newId();
    span_.parent = parent;
    span_.group = group;
    span_.name = std::move(name);
    span_.tid = tid;
    span_.startNs = wallNowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (!rec_.enabled())
        return;
    span_.endNs = wallNowNs();
    rec_.add(std::move(span_));
}

void
ScopedSpan::count(std::string name, double value)
{
    if (rec_.enabled())
        span_.counts.emplace_back(std::move(name), value);
}

sac::MemAccess
TimedTraceSource::next(sac::ChipId chip, sac::ClusterId cluster, int warp)
{
    const auto t0 = std::chrono::steady_clock::now();
    const sac::MemAccess a = inner_.next(chip, cluster, warp);
    const auto t1 = std::chrono::steady_clock::now();
    ns_ += std::chrono::duration<double, std::nano>(t1 - t0).count();
    ++calls_;
    return a;
}

void
TimedTraceSource::beginKernel(int kernel_index)
{
    inner_.beginKernel(kernel_index);
}

void
TimedTraceSource::beginStreamKernel(int stream, int kernel_index)
{
    inner_.beginStreamKernel(stream, kernel_index);
}

double
clockPairNs()
{
    constexpr int reps = 200000;
    std::vector<double> batches;
    for (int b = 0; b < 9; ++b) {
        double ns = 0.0;
        for (int i = 0; i < reps / 9; ++i) {
            const auto t0 = std::chrono::steady_clock::now();
            const auto t1 = std::chrono::steady_clock::now();
            ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
        }
        batches.push_back(ns / (reps / 9));
    }
    return median(batches);
}

} // namespace perfbench
