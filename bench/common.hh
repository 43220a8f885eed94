/**
 * @file
 * Shared machinery for the per-figure bench binaries.
 *
 * Every bench prints the paper-style rows for its table/figure with
 * the paper-reported aggregate next to the measured one. Progress goes
 * to stderr so stdout stays a clean table.
 *
 * Sweeps execute through the parallel ExperimentEngine (runPlan); set
 * SAC_JOBS to pin the worker count (SAC_JOBS=1 forces serial
 * execution — the results are bit-identical either way, only the wall
 * time changes). A job that does not finish ok fails the bench: its
 * label, status and diagnostic go to stderr and the process exits 1,
 * so no figure is ever built from an empty result.
 */

#ifndef SAC_BENCH_COMMON_HH
#define SAC_BENCH_COMMON_HH

#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/config.hh"
#include "llc/organization.hh"
#include "sim/engine.hh"
#include "sim/plan.hh"
#include "sim/report.hh"
#include "workload/suite.hh"

namespace sac::bench {

/** Default experiment configuration: the paper machine at scale 4. */
inline GpuConfig
defaultConfig()
{
    return GpuConfig::scaled(4);
}

/** The five organizations in evaluation order. */
inline const std::vector<OrgKind> &
allOrgs()
{
    return ExperimentPlan::allOrganizations();
}

/**
 * Runs @p plan on $SAC_JOBS workers (default: every hardware thread)
 * with a stderr progress line per job and returns the records in plan
 * order. Exits 1 after printing "label: status: diagnostic" for every
 * record that is not ok.
 */
std::vector<RunRecord> runPlan(const ExperimentPlan &plan);

/** One benchmark's results across organizations. */
struct BenchResults
{
    WorkloadProfile profile;
    std::map<OrgKind, RunResult> byOrg;

    double speedupOf(OrgKind kind) const
    {
        return speedup(byOrg.at(OrgKind::MemorySide), byOrg.at(kind));
    }
};

/**
 * Runs @p profiles under the given organizations (default: all five)
 * through the engine, logging progress to stderr. @p apw_scale
 * optionally shortens kernels for sweeps.
 */
std::vector<BenchResults> runMatrix(
    const std::vector<WorkloadProfile> &profiles, const GpuConfig &cfg,
    double apw_scale = 1.0, std::uint64_t seed = 1,
    const std::vector<OrgKind> &orgs = allOrgs());

/** Harmonic mean of each organization's speedups over @p results. */
std::map<OrgKind, double> hmeanSpeedups(
    const std::vector<BenchResults> &results);

/** Subset of the suite by names. */
std::vector<WorkloadProfile> pickBenchmarks(
    const std::vector<std::string> &names);

/** Prints "paper reports X, we measure Y" comparison lines. */
void paperCompare(std::ostream &os, const std::string &what,
                  const std::string &paper, const std::string &measured);

} // namespace sac::bench

#endif // SAC_BENCH_COMMON_HH
