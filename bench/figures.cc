/**
 * @file
 * The figure suite: prints every reproduced table and figure, Table 3
 * through the multi-tenant study, in one run. It takes no arguments.
 * SAC_JOBS sets the worker count, read as sacsim reads --jobs: unset
 * or 0 is every hardware thread, and a value that is not a whole
 * number ("2x", "-1") exits 1 before anything prints. Every figure's
 * engine shares one in-memory result cache (bench::runPlan), so a job
 * that several figures need is simulated once. The output is committed
 * as docs/validation/figures.txt, and CI diffs a fresh run against it.
 */

#include <cstdlib>
#include <exception>
#include <iostream>

#include "bench/common.hh"
#include "tools/cli.hh"

int
main()
{
    using namespace sac::bench;
    try {
        if (const char *env = std::getenv("SAC_JOBS"))
            workers = sac::cli::number<unsigned>("SAC_JOBS", env);
    } catch (const std::exception &e) {
        std::cerr << "figures: " << e.what() << "\n";
        return 1;
    }
    for (const auto figure :
         {table03Config, table04Workloads, fig01Motivation, fig08Speedup,
          fig09DataPlacement, fig10BandwidthBreakdown, fig11WorkingSet,
          fig12TimeVarying, fig13InputSensitivity, fig14Sensitivity,
          ablationDesign, multiTenant})
        figure();
    std::cerr << "figures: " << sac::ExperimentEngine::simulatedSystemRuns()
              << " job(s) simulated\n";
    return 0;
}
