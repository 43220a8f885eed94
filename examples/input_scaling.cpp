/**
 * @file
 * Example: how a workload's preferred LLC organization flips with its
 * input size (the Fig. 13 experiment as a library user would run it).
 *
 * Takes a Table 4 benchmark and sweeps its input scale, printing
 * which organization wins and what SAC decided at each point.
 *
 *   ./input_scaling [benchmark] [scale]
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
    const std::string name = argc > 1 ? argv[1] : "GEMM";
    const int scale = argc > 2 ? std::atoi(argv[2]) : 4;

    try {
        const GpuConfig cfg = GpuConfig::scaled(scale);
        const auto &base = findBenchmark(name);

        std::cout << "Input-size sweep for " << name << " ("
                  << (base.smSidePreferred ? "SM-side preferred"
                                           : "memory-side preferred")
                  << " at its default input)\n\n";

        // The whole sweep is one declarative plan; the engine runs
        // the 12 simulations on every available core.
        const std::vector<double> factors = {4.0, 1.0, 0.25, 1.0 / 16.0};
        ExperimentPlan plan;
        for (const double f : factors) {
            plan.addOrgSweep(base.withInputScale(f), cfg,
                             {OrgKind::MemorySide, OrgKind::SmSide,
                              OrgKind::Sac});
        }
        const auto records = ExperimentEngine(0).run(plan);

        report::Table t({"input", "shared set (MB)", "winner",
                         "SM-side speedup", "SAC speedup",
                         "SAC decision"});
        for (std::size_t i = 0; i < factors.size(); ++i) {
            const double f = factors[i];
            const auto wl = base.withInputScale(f);
            const auto &mem = records[i * 3 + 0].result;
            const auto &sm = records[i * 3 + 1].result;
            const auto &sac = records[i * 3 + 2].result;
            const double s = speedup(mem, sm);
            t.addRow({f >= 1.0 ? "x" + report::num(f, 0)
                               : "/" + report::num(1.0 / f, 0),
                      report::num(wl.trueSharedMB + wl.falseSharedMB, 1),
                      s > 1.02   ? "SM-side"
                      : s < 0.98 ? "memory-side"
                                 : "toss-up",
                      report::times(s),
                      report::times(speedup(mem, sac)),
                      sac.sacDecisions.empty()
                          ? "?"
                          : toString(sac.sacDecisions[0].chosen)});
        }
        t.print(std::cout);

        std::cout << "\nAs the input shrinks, the shared working set "
                     "becomes replicable and the SM-side\norganization "
                     "starts winning; SAC follows the crossover "
                     "automatically (Fig. 13).\n";
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
