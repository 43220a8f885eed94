/**
 * @file
 * SM-cluster partitioning between co-resident kernel streams.
 *
 * Distributed CTA scheduling (Arunkumar et al.: contiguous CTA blocks
 * per chip) needs no mapping here: the trace generator's per-chip
 * private regions model it (workload/tracegen.hh).
 */

#ifndef SAC_GPU_CTA_SCHEDULER_HH
#define SAC_GPU_CTA_SCHEDULER_HH

#include <cstdint>
#include <vector>

namespace sac {

/** Cluster ranges of co-resident kernel streams. */
class CtaScheduler
{
  public:
    /** [first, first+count) clusters of every chip. */
    struct Range
    {
        std::uint64_t first = 0;
        std::uint64_t count = 0;
    };

    /**
     * Partitions @p clusters SM clusters (per chip) between
     * co-resident kernel streams in proportion to @p shares, by
     * largest remainder. Every stream gets at least one cluster;
     * rounding ties break toward the earlier stream, so the split is
     * deterministic. Throws ValidationError when there are more
     * streams than clusters.
     */
    static std::vector<Range>
    partitionClusters(int clusters, const std::vector<double> &shares);
};

} // namespace sac

#endif // SAC_GPU_CTA_SCHEDULER_HH
