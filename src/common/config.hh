/**
 * @file
 * Simulated-system configuration.
 *
 * GpuConfig captures Table 3 of the paper plus the knobs exercised by
 * the sensitivity study (Fig. 14). The paper's full-scale baseline is
 * `GpuConfig::paperBaseline()`; experiments typically run a
 * proportionally scaled-down instance from `GpuConfig::scaled(d)`
 * which divides per-chip resource counts, bandwidths and (via the
 * workload layer) footprints by `d`, preserving every bandwidth ratio
 * the EAB model reasons about.
 *
 * Bandwidths are expressed in bytes per cycle; at the baseline 1 GHz
 * clock, 1 B/cy == 1 GB/s.
 */

#ifndef SAC_COMMON_CONFIG_HH
#define SAC_COMMON_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace sac {

/** Parameters of the SAC runtime (Section 3.2/3.5/3.6). */
struct SacParams
{
    /** Maximum profiling window at kernel start, in cycles (paper: 2K
     *  at full scale; GpuConfig::scaled grows it, see config.cc). */
    Cycle profileWindow = 2048;
    /**
     * The window closes as soon as this many L1 misses have been
     * observed (or at profileWindow cycles, whichever is first). The
     * request count is what the counters and CRD actually need, and
     * it is scale-invariant — the paper's 2K cycles correspond to
     * roughly this many requests on the full-scale machine.
     */
    std::uint64_t profileMinRequests = 40000;
    /**
     * EAB advantage the SM-side must show to win. The paper uses 5%;
     * our default is higher because the scaled synthetic setup has a
     * larger estimator bias (hitSm from the CRD vs. measured hitMem)
     * than the authors' full-scale simulator — genuinely SM-side
     * preferred kernels show EAB margins of 1.25x and above, so the
     * threshold only filters borderline noise. The Fig. 14 theta
     * ablation (bench/fig14_sensitivity.cc) sweeps this parameter.
     */
    double theta = 0.12;
    /** CRD geometry: sampled sets and ways (paper: 8 x 16). */
    int crdSets = 8;
    int crdWays = 16;
    /** Cycles to drain in-flight requests during a reconfiguration. */
    Cycle drainLatency = 200;
    /**
     * Re-profile the running kernel every this many cycles (0 = only
     * at kernel start, the paper's choice — Section 3.2 explored
     * 100K/1M-cycle re-profiling and found it unnecessary).
     */
    Cycle reprofileInterval = 0;
};

/** Parameters of the Dynamic LLC baseline (Milic et al.). */
struct DynamicLlcParams
{
    /** Repartitioning epoch in cycles. */
    Cycle epoch = 10000;
    /** Ways moved between local/remote partitions per epoch. */
    int step = 1;
    /** Minimum ways each partition keeps. */
    int minWays = 1;
};

/**
 * Full system configuration. Defaults are the paper baseline scaled
 * down 4x (see scaled()); all counts are per chip unless noted.
 */
struct GpuConfig
{
    // --- Topology (Table 3) ------------------------------------------
    int numChips = 4;
    /** SM clusters per chip (two SMs share a NoC port in the paper). */
    int clustersPerChip = 8;
    /** Warp contexts per cluster available to hide memory latency. */
    int warpsPerCluster = 48;
    int slicesPerChip = 4;
    int channelsPerChip = 2;

    // --- Cache geometry ----------------------------------------------
    unsigned lineBytes = 128;
    /** 1 for conventional caches; 4 models the sectored design point. */
    unsigned sectorsPerLine = 1;
    std::uint64_t llcBytesPerChip = 1ull << 20; // 1 MB (4 MB full scale)
    int llcWays = 16;
    std::uint64_t l1BytesPerCluster = 64 * 1024;
    int l1Ways = 8;
    unsigned pageBytes = 4096;

    // --- Bandwidths (bytes per cycle) ----------------------------------
    /** Intra-chip crossbar budget per port (cluster or slice side). */
    double xbarPortBw = 256.0;
    /** LLC array bandwidth per slice. */
    double sliceBw = 256.0;
    /** DRAM bandwidth per channel. */
    double dramChannelBw = 56.0;
    /** Inter-chip egress (= ingress) bandwidth per chip. */
    double interChipBw = 96.0;

    // --- Latencies (cycles) --------------------------------------------
    Cycle l1Latency = 4;
    Cycle xbarLatency = 12;
    Cycle dramLatency = 160;
    Cycle interChipLatency = 80;

    // --- Request sizing -------------------------------------------------
    /** NoC bytes consumed by a request packet (header + address). */
    unsigned requestBytes = 32;

    // --- Policies ---------------------------------------------------------
    CoherenceKind coherence = CoherenceKind::Software;
    /** Memory instructions a cluster may issue per cycle (2 SMs). */
    int clusterIssueWidth = 2;
    /** Outstanding loads one warp may have before it blocks (MLP). */
    int warpMaxOutstanding = 4;
    /** Maximum outstanding L1 misses per cluster (MSHR count). */
    int clusterMshrs = 64;
    /** Maximum outstanding misses per LLC slice. */
    int sliceMshrs = 64;
    /** Memory-controller queue depth per channel. */
    int memQueueDepth = 128;

    // --- Measurement ------------------------------------------------------
    /**
     * Cycles between Fig. 9 LLC remote-occupancy samples. A run-loop
     * control threshold the at-rest jump stops at, so it trades
     * llcRemoteFraction resolution against the length of the run
     * loop's at-rest jumps across idle launch gaps. Must be positive.
     */
    Cycle occupancyInterval = 2048;

    SacParams sac;
    DynamicLlcParams dynamicLlc;

    /** Global experiment seed; workload streams derive from it. */
    std::uint64_t seed = 1;

    // --- Derived quantities ---------------------------------------------
    int totalClusters() const { return numChips * clustersPerChip; }
    int totalSlices() const { return numChips * slicesPerChip; }
    int totalChannels() const { return numChips * channelsPerChip; }
    std::uint64_t llcBytesTotal() const { return llcBytesPerChip * numChips; }
    std::uint64_t llcBytesPerSlice() const
    {
        return llcBytesPerChip / slicesPerChip;
    }
    unsigned linesPerPage() const { return pageBytes / lineBytes; }
    double dramBwPerChip() const { return dramChannelBw * channelsPerChip; }
    double sliceBwPerChip() const { return sliceBw * slicesPerChip; }
    /** Intra-chip NoC bisection bandwidth (all slice ports together). */
    double intraBwPerChip() const { return xbarPortBw * slicesPerChip; }

    /**
     * Validates internal consistency (power-of-two geometry, positive
     * bandwidths, ...). Calls fatal() on user error.
     */
    void validate() const;

    /** Full-scale configuration from Table 3. */
    static GpuConfig paperBaseline();

    /**
     * Paper baseline with per-chip resource counts and bandwidths
     * divided by @p divisor, which must divide its 32 clusters and 16
     * slices per chip: 1, 2, 4, 8 or 16. The default experiment scale
     * is 4.
     */
    static GpuConfig scaled(int divisor);

    /** One-line summary, printed by sacsim and the examples. */
    std::string summary() const;
};

} // namespace sac

#endif // SAC_COMMON_CONFIG_HH
