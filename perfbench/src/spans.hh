/**
 * @file
 * The traced run's instruments, all on the harness side of the
 * library's public API: an in-memory span recorder written once at
 * exit as a Perfetto-loadable Chrome trace, per-layer self time
 * derived from the span tree, and a timing TraceSource decorator.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "gpu/kernel.hh"

namespace perfbench {

/** One timed call into a layer. */
struct Span
{
    std::uint64_t id = 0;
    /** Span that caused this one; 0 for a root. */
    std::uint64_t parent = 0;
    /** Job or plan the span belongs to; shared by its whole tree. */
    std::uint64_t group = 0;
    std::string name;
    double startNs = 0.0;
    double endNs = 0.0;
    unsigned tid = 0;
    /** Counts recorded at the same boundary (accesses, calls, ...). */
    std::vector<std::pair<std::string, double>> counts;
};

/** Self time of one span name, summed over its spans. */
struct LayerTime
{
    std::uint64_t spans = 0;
    double totalNs = 0.0;
    double selfNs = 0.0;
};

/**
 * Thread-safe in-memory span store. Disabled recorders hand out id 0
 * and store nothing, so untraced runs pay one branch per call site.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** A fresh span/group id (0 when disabled). */
    std::uint64_t newId();

    /** Stores a finished span; ignored when disabled. */
    void add(Span span);

    /** Self time per span name: duration minus the union of its
     *  children's intervals. */
    std::map<std::string, LayerTime> selfTimes() const;

    /** Writes every span as a Chrome trace-event JSON document. */
    void writePerfetto(const std::string &path) const;

    std::size_t size() const;

  private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::uint64_t nextId_ = 0;
    std::vector<Span> spans_;
};

/**
 * RAII span: times its scope and stores itself on destruction. With a
 * disabled recorder it records nothing; id() is then 0.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, std::string name, std::uint64_t parent,
               std::uint64_t group, unsigned tid = 0);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return span_.id; }
    void count(std::string name, double value);

  private:
    SpanRecorder &rec_;
    Span span_;
};

/**
 * Times every TraceSource::next call of the wrapped generator and
 * aggregates count and nanoseconds (one pair of clock reads per call,
 * never one span per call). Kernel notifications are forwarded
 * untouched, so the wrapped System sees the identical access stream.
 */
class TimedTraceSource : public sac::TraceSource
{
  public:
    explicit TimedTraceSource(sac::TraceSource &inner) : inner_(inner) {}

    sac::MemAccess next(sac::ChipId chip, sac::ClusterId cluster,
                        int warp) override;
    void beginKernel(int kernel_index) override;
    void beginStreamKernel(int stream, int kernel_index) override;

    std::uint64_t calls() const { return calls_; }
    /** Raw timed nanoseconds, clock overhead included. */
    double ns() const { return ns_; }

  private:
    sac::TraceSource &inner_;
    std::uint64_t calls_ = 0;
    double ns_ = 0.0;
};

/**
 * Median cost of one back-to-back pair of the decorator's clock
 * reads, nanoseconds: the per-call share of the decorator's own
 * overhead, subtracted when reporting trace time per call.
 */
double clockPairNs();

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
