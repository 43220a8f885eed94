/**
 * @file
 * Quickstart: simulate one benchmark on the 4-chip GPU under all five
 * LLC organizations and print the headline numbers.
 *
 *   ./quickstart [benchmark] [scale]
 *
 * benchmark: a Table 4 name (default CFD)
 * scale:     topology divisor, 1 = full paper machine (default 4)
 */

#include <cstdlib>
#include <iostream>

#include "common/log.hh"
#include "sim/engine.hh"
#include "sim/plan.hh"
#include "sim/report.hh"
#include "workload/suite.hh"

int
main(int argc, char **argv)
{
    using namespace sac;
    const std::string name = argc > 1 ? argv[1] : "CFD";
    const int scale = argc > 2 ? std::atoi(argv[2]) : 4;

    try {
        const GpuConfig cfg = GpuConfig::scaled(scale);
        const WorkloadProfile &wl = findBenchmark(name);

        std::cout << "SAC quickstart: " << name << " on "
                  << cfg.summary() << "\n";

        // All five organizations, parallel workers, records in the
        // canonical presentation order.
        ExperimentPlan plan;
        plan.addOrgSweep(wl, cfg);
        const auto records = ExperimentEngine(0).run(plan);
        const RunResult &base = records.front().result; // memory-side

        report::Table table({"organization", "cycles", "speedup",
                             "LLC miss", "eff LLC BW (resp/cy)",
                             "remote LLC frac"});
        for (const auto &rec : records) {
            const RunResult &r = rec.result;
            table.addRow({r.organization, std::to_string(r.cycles),
                          report::times(speedup(base, r)),
                          report::percent(r.llcMissRate()),
                          report::num(r.effLlcBw),
                          report::percent(r.llcRemoteFraction)});
        }
        table.print(std::cout);

        const auto &sac_result = records.back().result; // SAC
        for (const auto &d : sac_result.sacDecisions) {
            std::cout << "SAC kernel " << d.kernel << ": chose "
                      << toString(d.chosen) << "  [" << d.eab.summary()
                      << "; Rlocal " << report::percent(d.inputs.rLocal)
                      << ", hitMem " << report::percent(d.inputs.hitMem)
                      << ", hitSm(CRD) " << report::percent(d.inputs.hitSm)
                      << "]\n";
        }
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
