/**
 * @file
 * Multi-tenant execution scenarios.
 *
 * A Scenario generalizes the flat kernel sequence a run used to be: a
 * set of kernel *streams*, each with its own workload profile, launch
 * cycle and cluster share. Co-resident streams partition the SM
 * clusters of every chip between them (CtaScheduler::partitionClusters)
 * and run their kernel sequences independently — the setting in which
 * SAC's per-kernel sharing verdict is actually contested (FLEET-style
 * megakernels, ATA-Cache co-runners; see PAPERS.md).
 *
 * Every run is a scenario: a single-kernel run *is* the one-stream
 * scenario — one stream, launch cycle 0, all clusters — and
 * System::run(kernels) is its trivial encoding. Both go through the
 * same kernel launch, kernel finish and SAC service, so the two
 * encodings produce the same bytes.
 *
 * Scenario files are JSON ("sac.scenario.v1"):
 *
 *   {
 *     "schema": "sac.scenario.v1",
 *     "streams": [
 *       {"benchmark": "CFD", "launchCycle": 0, "clusterShare": 1.0},
 *       {"benchmark": "SRAD", "launchCycle": 0, "clusterShare": 1.0,
 *        "kernels": 1, "apw": 448, "inputScale": 0.5}
 *     ]
 *   }
 *
 * Every numeric field is range-checked with the field name in the
 * error, the same convention service/protocol.cc follows.
 */

#ifndef SAC_WORKLOAD_SCENARIO_HH
#define SAC_WORKLOAD_SCENARIO_HH

#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/json.hh"
#include "common/types.hh"
#include "gpu/cta_scheduler.hh"
#include "gpu/kernel.hh"
#include "workload/profile.hh"
#include "workload/tracegen.hh"

namespace sac {

/** One kernel stream of a scenario. */
struct StreamSpec
{
    WorkloadProfile profile;
    /** Cycle at which the stream's first kernel launches. */
    Cycle launchCycle = 0;
    /** Relative cluster share (normalized across streams). */
    double clusterShare = 1.0;
    /** Kernel invocations; 0 means the profile's own numKernels. */
    int numKernels = 0;

    int kernelCount() const
    {
        return numKernels > 0 ? numKernels : profile.numKernels;
    }
};

/** A run: one or more kernel streams. */
struct Scenario
{
    std::vector<StreamSpec> streams;

    /** Stream profile names joined with '+' ("CFD+SRAD"). */
    std::string name() const;

    /** Applies WorkloadProfile::scaledData to every stream. */
    Scenario scaledData(double divisor) const;

    /** The trivial one-stream scenario wrapping @p profile. */
    static Scenario fromProfile(const WorkloadProfile &profile);
};

/** Schema identifier of scenario files. */
extern const char *const scenarioSchemaVersion;

/** Hard cap on streams per scenario (arbitrary sanity bound). */
constexpr std::size_t maxScenarioStreams = 8;

/**
 * Parses the "streams" array of a scenario document — shared by the
 * file reader and the sweep protocol's embedded "scenario" field.
 * Throws ValidationError on any out-of-range or unknown field value.
 */
Scenario scenarioFromStreamsValue(const json::Value &streams);

/** Parses one complete scenario document (schema + streams). */
Scenario scenarioFromJson(const std::string &text);

/** Reads and parses a scenario file; context carries the path. */
Scenario scenarioFromFile(const std::string &path);

/**
 * Trace source for a scenario: one SharingTraceGen per stream, each
 * seeded independently and relocated into a disjoint address window,
 * demultiplexed by the cluster partition.
 *
 * Stream 0 is the identity stream: its seed mix and address offset
 * both degenerate to zero, so a one-stream scenario produces the
 * exact access sequence a bare SharingTraceGen would.
 */
class StreamTraceMux : public TraceSource
{
  public:
    StreamTraceMux(const Scenario &scenario, const GpuConfig &cfg,
                   std::uint64_t seed);

    MemAccess next(ChipId chip, ClusterId cluster, int warp) override;
    void beginKernel(int kernel_index) override;
    void beginStreamKernel(int stream, int kernel_index) override;

    int numStreams() const { return static_cast<int>(gens_.size()); }
    /** Stream owning @p cluster (same partition on every chip). */
    int streamOfCluster(ClusterId cluster) const;
    /** Per-stream cluster ranges within each chip. */
    const std::vector<CtaScheduler::Range> &clusterRanges() const
    {
        return ranges_;
    }
    /** Generator of one stream (tests, working-set analysis). */
    const SharingTraceGen &streamGen(int stream) const
    {
        return *gens_[static_cast<std::size_t>(stream)];
    }

  private:
    std::vector<std::unique_ptr<SharingTraceGen>> gens_;
    std::vector<CtaScheduler::Range> ranges_;
    std::vector<int> clusterStream_;
    std::vector<Addr> offsets_;
};

} // namespace sac

#endif // SAC_WORKLOAD_SCENARIO_HH
