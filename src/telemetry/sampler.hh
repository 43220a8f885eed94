/**
 * @file
 * The epoch Sampler: turns cumulative counters into a Timeline.
 *
 * The System feeds the sampler its counter totals every N cycles
 * (Counters is cheap to fill — every member is already maintained by
 * the simulation); the sampler keeps the previous totals and appends
 * the per-epoch delta as an EpochSample. Telemetry disabled means no
 * Sampler is constructed at all — the run loop's only cost is one
 * null-pointer check per iteration.
 *
 * Epochs are aligned to the cycle the threshold check fires at, so a
 * sample can span slightly more than the nominal epoch (the run loop
 * checks once per tick, and kernel-boundary flushes jump the clock);
 * start/end record the exact interval, never assume end-start==epoch.
 */

#ifndef SAC_TELEMETRY_SAMPLER_HH
#define SAC_TELEMETRY_SAMPLER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "telemetry/timeline.hh"

namespace sac::telemetry {

/** Cumulative counter totals at one cycle; the sampler's raw input. */
struct Counters
{
    std::uint64_t llcRequests = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t respLocalLlc = 0;
    std::uint64_t respRemoteLlc = 0;
    std::uint64_t respLocalMem = 0;
    std::uint64_t respRemoteMem = 0;
    std::uint64_t icnBytes = 0;
    std::uint64_t dramBytes = 0;
    /** Inter-chip egress bytes per source chip (link skew). */
    std::vector<std::uint64_t> icnBySrc;
};

/** Produces per-epoch deltas of the system's key rates. */
class Sampler
{
  public:
    /**
     * @param epoch nominal sample interval, cycles (> 0)
     * @param per_chip_egress_bw inter-chip egress bytes/cycle budget
     *        of one chip (link-utilization denominator)
     */
    Sampler(Cycle epoch, double per_chip_egress_bw);

    Cycle epoch() const { return epoch_; }

    /** True when the next epoch boundary has been reached. */
    bool due(Cycle now) const { return now >= nextAt_; }

    /** Cycle at which due() first becomes true (the service deadline). */
    Cycle nextDue() const { return nextAt_; }

    /**
     * Closes the current epoch at @p now: appends the delta between
     * @p totals and the previous totals. @p kernel and @p mode tag
     * the sample with the execution context at close time.
     */
    void sample(const Counters &totals, Cycle now, int kernel,
                const std::string &mode);

    /**
     * Closes the final, possibly partial epoch at end of run. A
     * zero-length tail (the last sample already ended at @p now) is
     * dropped rather than recorded.
     */
    void finish(const Counters &totals, Cycle now, int kernel,
                const std::string &mode);

    const std::vector<EpochSample> &samples() const { return samples_; }

    /** Moves the accumulated samples out (the sampler is done). */
    std::vector<EpochSample> take() { return std::move(samples_); }

  private:
    Cycle epoch_;
    double chipEgressBw_;
    Cycle lastAt_ = 0;
    Cycle nextAt_;
    Counters prev_;
    std::vector<EpochSample> samples_;
};

} // namespace sac::telemetry

#endif // SAC_TELEMETRY_SAMPLER_HH
