/**
 * @file
 * Synthetic trace generator with controlled inter-chip sharing.
 *
 * The generator lays the workload's footprint out in a synthetic
 * address space with three regions:
 *
 *   [ truly shared | falsely shared | chip 0 private | chip 1 ... ]
 *
 * Every region is drawn from as a hot set: with probability
 * `*HotFrac` uniformly from its first `*HotMB`, otherwise uniformly
 * from the rest of the region. Truly shared lines are drawn by every
 * chip from the same distribution (so they get accessed, and under an
 * SM-side LLC replicated, by all chips). Falsely shared pages are
 * shared at page granularity but each chip only touches its own
 * interleaved lines within them. Private lines are touched only by
 * the owning chip: its private region stands for the data its block
 * of CTAs works on, which is how the generator models distributed
 * CTA scheduling.
 *
 * First-touch page placement then spreads shared pages across memory
 * partitions (whichever chip reaches a page first homes it) while
 * private pages land on their owner — exactly the dynamics of
 * Figures 4 and 5 in the paper.
 */

#ifndef SAC_WORKLOAD_TRACEGEN_HH
#define SAC_WORKLOAD_TRACEGEN_HH

#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/rng.hh"
#include "gpu/kernel.hh"
#include "workload/profile.hh"

namespace sac {

/** Region classification of a generated address (Fig. 11 analysis). */
enum class SharingClass : std::uint8_t { TrueShared, FalseShared, Private };

/** Trace source driven by a WorkloadProfile. */
class SharingTraceGen : public TraceSource
{
  public:
    /**
     * @param profile workload (already data-scaled to the config)
     * @param cfg system shape (chips, line/page size, clusters, warps)
     * @param seed experiment seed
     */
    SharingTraceGen(const WorkloadProfile &profile, const GpuConfig &cfg,
                    std::uint64_t seed);

    MemAccess next(ChipId chip, ClusterId cluster, int warp) override;

    void beginKernel(int kernel_index) override;

    /** Classifies an address produced by this generator. */
    SharingClass classify(Addr line_addr) const;

    // Region geometry (line counts), exposed for tests and the
    // working-set analyzer.
    std::uint64_t trueLines() const { return trueLines_; }
    std::uint64_t falseLines() const { return falsePages_ * linesPerPage; }
    std::uint64_t privateLinesPerChip() const { return privLinesPerChip; }
    const WorkloadProfile &profile() const { return profile_; }

  private:
    std::size_t streamIndex(ChipId chip, ClusterId cluster, int warp) const;
    Addr trueAddr(Rng &rng) const;
    Addr falseAddr(ChipId chip, Rng &rng) const;
    Addr privAddr(ChipId chip, Rng &rng) const;
    /** Hot-set draw: uniform over [0, hot) w.p. hot_frac, else tail. */
    static std::uint64_t hotDraw(Rng &rng, std::uint64_t population,
                                 std::uint64_t hot, double hot_frac);

    WorkloadProfile profile_;
    int numChips;
    int clustersPerChip;
    int warpsPerCluster;
    unsigned lineBytes;
    unsigned pageBytes;
    unsigned linesPerPage;
    unsigned sectorsPerLine;

    // Region layout.
    std::uint64_t trueLines_ = 0;
    std::uint64_t falsePages_ = 0;
    std::uint64_t privLinesPerChip = 0;
    Addr falseBase = 0;
    Addr privBase = 0;

    // Active phase state.
    KernelPhase active;
    double effTrueFrac = 0.0;
    double effFalseFrac = 0.0;
    std::uint64_t activeTrueLines = 0;
    std::uint64_t hotTrueLines = 0;
    std::uint64_t hotFalsePages = 0;
    std::uint64_t hotPrivLines = 0;

    std::vector<Rng> rngs;

    /** Per-warp ring of recently touched lines (reread modelling). */
    static constexpr unsigned recentDepth = 8;
    struct Recent
    {
        Addr lines[recentDepth] = {};
        unsigned count = 0;
        unsigned next = 0;
    };
    std::vector<Recent> recents;
};

} // namespace sac

#endif // SAC_WORKLOAD_TRACEGEN_HH
