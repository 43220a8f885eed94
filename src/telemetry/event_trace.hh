/**
 * @file
 * EventTrace: the recorder for discrete simulation events.
 *
 * Components call the typed record helpers at the moment something
 * worth explaining happens — a kernel launches, SAC closes a profile
 * window and decides, the LLC drains and flushes, the dynamic
 * partitioner moves a way. The trace is a flat, cycle-ordered vector
 * of TraceEvent; exporters (telemetry/export.hh) turn it into
 * lossless JSON or Chrome-trace JSON for Perfetto.
 *
 * Like the Sampler, an EventTrace only exists when event recording
 * was requested; a null check guards every record site.
 */

#ifndef SAC_TELEMETRY_EVENT_TRACE_HH
#define SAC_TELEMETRY_EVENT_TRACE_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "telemetry/timeline.hh"

namespace sac::telemetry {

/** Accumulates TraceEvents during a run. */
class EventTrace
{
  public:
    /** Appends an already-built event. */
    void record(TraceEvent event) { events_.push_back(std::move(event)); }

    // --- typed helpers for the standard instrumentation points -------

    void kernelBegin(int kernel, const std::string &name, Cycle now);
    /** @p length is the kernel's cycle count (recorded as duration). */
    void kernelEnd(int kernel, Cycle now, Cycle length);

    /**
     * SAC profiling window closed. @p chosen is the decided mode
     * name; @p args carries the EAB terms and model inputs.
     */
    void windowClose(int kernel, Cycle now, const std::string &chosen,
                     std::vector<std::pair<std::string, double>> args);

    /** SAC switched the LLC organization to @p mode. */
    void reconfigure(int kernel, Cycle now, const std::string &mode);

    /** LLC drain/writeback/invalidate stall of @p duration cycles. */
    void flush(int kernel, Cycle now, Cycle duration,
               const std::string &why);

    /** Dynamic-LLC way move on @p chip: @p before -> @p after ways. */
    void wayMove(ChipId chip, Cycle now, int before, int after);

    // --- access -------------------------------------------------------

    const std::vector<TraceEvent> &events() const { return events_; }
    std::size_t size() const { return events_.size(); }
    bool empty() const { return events_.empty(); }

    /** Moves the accumulated events out (the trace is done). */
    std::vector<TraceEvent> take() { return std::move(events_); }

  private:
    std::vector<TraceEvent> events_;
};

} // namespace sac::telemetry

#endif // SAC_TELEMETRY_EVENT_TRACE_HH
