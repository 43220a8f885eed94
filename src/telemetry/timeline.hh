/**
 * @file
 * Telemetry data model: what a run looks like over time.
 *
 * A Timeline is the observability record of one simulation — a series
 * of per-epoch counter deltas (EpochSample) plus the discrete events
 * (TraceEvent) that explain why the curves move: kernel boundaries,
 * SAC profile-window closes, reconfiguration decisions with their EAB
 * numbers, drain/flush stalls, dynamic-partition way moves.
 *
 * Everything in here is deterministic simulated-time data (cycles and
 * counters, never wall clock), so timelines are bit-identical across
 * worker counts and serialize losslessly (see telemetry/export.hh and
 * the sac.results embedding in sim/result_io.hh).
 */

#ifndef SAC_TELEMETRY_TIMELINE_HH
#define SAC_TELEMETRY_TIMELINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace sac::telemetry {

/** What to record during a run; all off by default (zero cost). */
struct Options
{
    /** Epoch length in cycles; 0 disables epoch sampling entirely. */
    Cycle epoch = 0;
    /** Record discrete events (kernels, reconfigurations, flushes). */
    bool events = false;

    bool enabled() const { return epoch > 0 || events; }
};

/** Counter deltas over one epoch [start, end). */
struct EpochSample
{
    Cycle start = 0;
    Cycle end = 0;
    /** Kernel active when the epoch closed. */
    int kernel = 0;
    /** LLC mode/organization in effect when the epoch closed. */
    std::string mode;

    std::uint64_t llcRequests = 0;
    std::uint64_t llcHits = 0;

    /** Read responses delivered to SMs, by origin (Fig. 10 axes). */
    std::uint64_t respLocalLlc = 0;
    std::uint64_t respRemoteLlc = 0;
    std::uint64_t respLocalMem = 0;
    std::uint64_t respRemoteMem = 0;

    std::uint64_t icnBytes = 0;
    std::uint64_t dramBytes = 0;

    /** Aggregate inter-chip egress bandwidth used, fraction of peak. */
    double linkUtilization = 0.0;
    /** Same for the single most loaded chip (skew indicator). */
    double peakLinkUtilization = 0.0;

    Cycle cycles() const { return end - start; }
    double llcHitRate() const
    {
        return llcRequests ? static_cast<double>(llcHits) /
                                 static_cast<double>(llcRequests)
                           : 0.0;
    }
};

/** Discrete event kinds recorded by the EventTrace. */
enum class EventKind : std::uint8_t
{
    KernelBegin,
    KernelEnd,
    /** SAC profiling window closed (decision taken, EAB args). */
    WindowClose,
    /** SAC reconfigured the LLC organization. */
    Reconfigure,
    /** LLC drain + writeback + invalidate stall (duration in dur). */
    Flush,
    /** Dynamic-LLC way repartitioning step on one chip. */
    WayMove,
};

/** Stable short name ("kernel-begin", "flush", ...) for @p kind. */
const char *toString(EventKind kind);

/** Parses the output of toString(EventKind); throws on unknown names. */
EventKind eventKindFromName(const std::string &name);

/** One discrete event on the simulated-time axis. */
struct TraceEvent
{
    EventKind kind = EventKind::KernelBegin;
    Cycle cycle = 0;
    /** Span length (Flush, KernelEnd carries kernel length); else 0. */
    Cycle duration = 0;
    /** Kernel index the event belongs to; -1 when not kernel-scoped. */
    int kernel = -1;
    /** Chip the event concerns (WayMove); -1 for system-wide events. */
    ChipId chip = invalidChip;
    /** Short human-readable tag (kernel name, chosen mode, ...). */
    std::string label;
    /** Numeric payload, e.g. the EAB terms of a decision. Ordered. */
    std::vector<std::pair<std::string, double>> args;
};

/** The full telemetry record of one run. */
struct Timeline
{
    /** Epoch length used for samples; 0 when only events were taken. */
    Cycle epoch = 0;
    std::vector<EpochSample> samples;
    std::vector<TraceEvent> events;

    bool empty() const { return samples.empty() && events.empty(); }
};

} // namespace sac::telemetry

#endif // SAC_TELEMETRY_TIMELINE_HH
