#include "gpu/cta_scheduler.hh"

#include "common/log.hh"

namespace sac {

std::vector<CtaScheduler::Range>
CtaScheduler::partitionClusters(int clusters, const std::vector<double> &shares)
{
    const auto n = shares.size();
    SAC_ASSERT(n >= 1, "partition needs at least one stream");
    if (static_cast<std::size_t>(clusters) < n) {
        invalid("scenario", n, " streams need at least ", n,
                " clusters per chip, have ", clusters);
    }
    double total = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
        SAC_ASSERT(shares[s] > 0.0, "cluster share must be positive");
        total += shares[s];
    }

    // Largest remainder over the ideal proportional split.
    std::vector<int> counts(n, 0);
    std::vector<double> remainder(n, 0.0);
    int assigned = 0;
    for (std::size_t s = 0; s < n; ++s) {
        const double ideal = clusters * shares[s] / total;
        counts[s] = static_cast<int>(ideal);
        remainder[s] = ideal - counts[s];
        assigned += counts[s];
    }
    while (assigned < clusters) {
        std::size_t pick = 0;
        for (std::size_t s = 1; s < n; ++s) {
            if (remainder[s] > remainder[pick])
                pick = s;
        }
        ++counts[pick];
        remainder[pick] = -1.0;
        ++assigned;
    }

    // Min-one floor: lend from the currently largest allocation.
    for (std::size_t s = 0; s < n; ++s) {
        while (counts[s] == 0) {
            std::size_t donor = 0;
            for (std::size_t d = 1; d < n; ++d) {
                if (counts[d] > counts[donor])
                    donor = d;
            }
            SAC_ASSERT(counts[donor] > 1, "no cluster to lend");
            --counts[donor];
            ++counts[s];
        }
    }

    std::vector<Range> ranges(n);
    std::uint64_t first = 0;
    for (std::size_t s = 0; s < n; ++s) {
        ranges[s].first = first;
        ranges[s].count = static_cast<std::uint64_t>(counts[s]);
        first += ranges[s].count;
    }
    return ranges;
}

} // namespace sac
