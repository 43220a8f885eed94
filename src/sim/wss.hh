/**
 * @file
 * Working-set-size analysis for Fig. 11.
 *
 * Replays a workload's access stream (interleaving all warps round-
 * robin, no timing) and measures, per window, the unique data touched
 * in each sharing class — truly shared, falsely shared, non-shared —
 * exactly the categories of Section 2.1. The truly shared component
 * is additionally reported as its *replicated* size (unique lines x
 * number of accessing chips), since that is what an SM-side LLC must
 * hold (the comparison against total LLC capacity in Fig. 11).
 */

#ifndef SAC_SIM_WSS_HH
#define SAC_SIM_WSS_HH

#include <cstdint>

#include "common/config.hh"
#include "workload/tracegen.hh"

namespace sac {

/** Average working-set bytes per window, split by sharing class. */
struct WorkingSetSample
{
    std::uint64_t windowAccesses = 0;
    double trueSharedMB = 0.0;
    double trueSharedReplicatedMB = 0.0;
    double falseSharedMB = 0.0;
    double nonSharedMB = 0.0;

    double totalMB() const
    {
        return trueSharedMB + falseSharedMB + nonSharedMB;
    }
    double totalReplicatedMB() const
    {
        return trueSharedReplicatedMB + falseSharedMB + nonSharedMB;
    }
};

/** Stream-replay working-set analyzer. */
class WorkingSetAnalyzer
{
  public:
    WorkingSetAnalyzer(const GpuConfig &cfg, SharingTraceGen &gen);

    /**
     * Measures the average working set over windows of
     * @p window_accesses accesses, replaying @p total_accesses total.
     */
    WorkingSetSample measure(std::uint64_t window_accesses,
                             std::uint64_t total_accesses);

  private:
    const GpuConfig &cfg_;
    SharingTraceGen &gen_;
};

} // namespace sac

#endif // SAC_SIM_WSS_HH
