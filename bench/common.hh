/**
 * @file
 * Shared machinery for the figure suite, bench/figures.
 *
 * Every figure prints the paper-style rows for its table/figure with
 * the paper-reported aggregate next to the measured one. Progress goes
 * to stderr so stdout stays a clean table.
 *
 * Sweeps execute through the parallel ExperimentEngine (runPlan); set
 * SAC_JOBS to pin the worker count (SAC_JOBS=1 forces serial
 * execution — the results are bit-identical either way, only the wall
 * time changes). Every engine shares one in-memory result cache, so a
 * job an earlier figure already simulated is served from memory. A
 * job that does not finish ok fails the suite: its label, status and
 * diagnostic go to stderr and the process exits 1, so no figure is
 * ever built from an empty result.
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

/**
 * Runs @p plan on $SAC_JOBS workers (default: every hardware thread)
 * with a stderr progress line per job and returns the records in plan
 * order. A job whose canonical key an earlier plan of this process
 * already ran is served from memory instead of simulated. Exits 1
 * after printing "label: status: diagnostic" for every record that
 * is not ok.
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
 * through the engine, logging progress to stderr.
 */
std::vector<BenchResults> runMatrix(
    const std::vector<WorkloadProfile> &profiles, const GpuConfig &cfg,
    const std::vector<OrgKind> &orgs = ExperimentPlan::allOrganizations());

/** Harmonic mean of each organization's speedups over @p results. */
std::map<OrgKind, double> hmeanSpeedups(
    const std::vector<BenchResults> &results);

/** Subset of the suite by names. */
std::vector<WorkloadProfile> pickBenchmarks(
    const std::vector<std::string> &names);

/** Prints "paper reports X, we measure Y" comparison lines. */
void paperCompare(std::ostream &os, const std::string &what,
                  const std::string &paper, const std::string &measured);

/**
 * The figures, one per bench/<name>.cc, in the order bench/figures
 * prints them. Each prints its table or figure to stdout.
 */
void table03Config();
void table04Workloads();
void fig01Motivation();
void fig08Speedup();
void fig09DataPlacement();
void fig10BandwidthBreakdown();
void fig11WorkingSet();
void fig12TimeVarying();
void fig13InputSensitivity();
void fig14Sensitivity();
void ablationDesign();
void multiTenant();

} // namespace sac::bench

#endif // SAC_BENCH_COMMON_HH
