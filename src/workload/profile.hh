/**
 * @file
 * Workload profiles: the knobs that characterize a benchmark's memory
 * behaviour.
 *
 * Quantitative structure (CTAs, footprint, truly shared and falsely
 * shared bytes) comes from Table 4 of the paper. Behavioural knobs
 * (access-mix fractions, locality skew, compute intensity) are the
 * part the paper measures implicitly through its benchmarks; DESIGN.md
 * documents how each group is parameterized so the sharing structure
 * of Fig. 11 emerges.
 */

#ifndef SAC_WORKLOAD_PROFILE_HH
#define SAC_WORKLOAD_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace sac {

/**
 * Behaviour of one kernel invocation.
 *
 * Locality is modelled per region as a *hot set*: a fraction
 * `XHotFrac` of the region's accesses goes uniformly to a hot subset
 * of `XHotMB` megabytes, the rest uniformly to the rest of the
 * region. Hot sets are sized between L1 and LLC reach, which is what
 * makes the LLC organization matter (a Zipf head would be absorbed
 * by the L1s).
 * Hot-set sizes are full-scale MB and are scaled together with the
 * footprint by WorkloadProfile::scaledData().
 */
struct KernelPhase
{
    /** Fraction of accesses to the truly shared region. */
    double trueFrac = 0.3;
    /** Fraction of accesses to the falsely shared region. */
    double falseFrac = 0.3;
    /** Store fraction of all accesses. */
    double writeFrac = 0.1;

    /** Truly shared hot set: access fraction and size. */
    double trueHotFrac = 0.9;
    double trueHotMB = 2.0;
    /** Falsely shared hot set. */
    double falseHotFrac = 0.85;
    double falseHotMB = 8.0;
    /** Private hot set (system-wide MB; each chip owns 1/numChips). */
    double privHotFrac = 0.8;
    double privHotMB = 8.0;

    /**
     * Short-term reuse: probability an access repeats one of the
     * warp's recent lines (absorbed by the L1; models register/L1
     * locality real kernels have).
     */
    double rereadFrac = 0.2;

    /** Average compute cycles between a warp's accesses. */
    unsigned computeGap = 20;
    /** Accesses each warp issues this kernel. */
    std::uint64_t accessesPerWarp = 128;
    /** Portion of the truly shared region this kernel touches. */
    double trueRegionFrac = 1.0;
};

/** A benchmark: Table 4 data + behaviour + kernel sequence. */
struct WorkloadProfile
{
    std::string name;
    /** Paper grouping: top half of Table 4 prefers the SM-side LLC. */
    bool smSidePreferred = false;

    // Table 4 columns (full-scale values).
    std::uint64_t ctas = 1024;
    double footprintMB = 64.0;
    double trueSharedMB = 8.0;
    double falseSharedMB = 8.0;

    /** Kernel behaviours; kernel i uses phases[i % phases.size()]. */
    std::vector<KernelPhase> phases{KernelPhase{}};
    /** Kernel invocations per run. */
    int numKernels = 2;

    /** Private bytes = footprint - shared regions (never negative). */
    double privateMB() const
    {
        const double p = footprintMB - trueSharedMB - falseSharedMB;
        return p > 0.0 ? p : 0.0;
    }

    /**
     * Divides all data-set sizes by @p divisor — used to keep scaled
     * system configurations (GpuConfig::scaled) seeing the same
     * data-to-LLC ratios as the full-scale machine.
     */
    WorkloadProfile scaledData(double divisor) const;

    /**
     * Multiplies all data-set sizes by @p factor — the input-set
     * sensitivity axis of Fig. 13 (x8 ... /32).
     */
    WorkloadProfile withInputScale(double factor) const;

    /** Phase for kernel @p kernel_index. */
    const KernelPhase &phase(int kernel_index) const;
};

} // namespace sac

#endif // SAC_WORKLOAD_PROFILE_HH
