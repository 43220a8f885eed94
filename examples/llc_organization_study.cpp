/**
 * @file
 * Example: studying LLC organizations on a custom workload.
 *
 * Defines a workload from scratch (a synthetic graph-analytics kernel
 * with a hot shared frontier), runs it under every LLC organization,
 * and compares what the EAB model predicted with what the simulator
 * measured — the workflow an architect would use to decide whether a
 * design needs SAC.
 *
 *   ./llc_organization_study [scale]
 */

#include <cstdlib>
#include <iostream>

#include "common/log.hh"
#include "sim/engine.hh"
#include "sim/plan.hh"
#include "sim/report.hh"
#include "workload/profile.hh"

int
main(int argc, char **argv)
{
    using namespace sac;
    const int scale = argc > 1 ? std::atoi(argv[1]) : 4;

    try {
        const GpuConfig cfg = GpuConfig::scaled(scale);

        // A custom workload: 60% of accesses hit a 3 MB truly shared
        // frontier (hot and replication-friendly), the rest stream
        // private adjacency lists.
        WorkloadProfile wl;
        wl.name = "graph-frontier";
        wl.ctas = 2048;
        wl.footprintMB = 80;
        wl.trueSharedMB = 12;
        wl.falseSharedMB = 8;
        wl.numKernels = 1;
        KernelPhase &k = wl.phases[0];
        k.trueFrac = 0.45;
        k.falseFrac = 0.25;
        k.writeFrac = 0.08;
        k.trueHotMB = 3.0;
        k.trueHotFrac = 0.95;
        k.falseHotMB = 4.0;
        k.falseHotFrac = 0.92;
        k.privHotMB = 3.0;
        k.privHotFrac = 0.9;
        k.computeGap = 16;
        k.accessesPerWarp = 512;

        std::cout << "Custom workload '" << wl.name << "' on "
                  << cfg.summary() << "\n\n";

        // Ordered sweep through the engine: index 0 is the
        // memory-side baseline, the last entry is SAC.
        ExperimentPlan plan;
        plan.addOrgSweep(wl, cfg);
        const auto records = ExperimentEngine(0).run(plan);
        const auto &base = records.front().result;

        report::Table t({"organization", "speedup", "LLC miss",
                         "eff LLC BW", "ICN bytes", "avg load lat"});
        for (const auto &rec : records) {
            const RunResult &r = rec.result;
            t.addRow({r.organization, report::times(speedup(base, r)),
                      report::percent(r.llcMissRate()),
                      report::num(r.effLlcBw),
                      std::to_string(r.icnBytes >> 20) + " MB",
                      report::num(r.avgLoadLatency, 0) + " cy"});
        }
        t.print(std::cout);

        // What did SAC's model think, and was it right?
        const auto &sac_run = records.back().result;
        std::cout << "\nSAC's reasoning:\n";
        for (const auto &d : sac_run.sacDecisions) {
            std::cout << "  kernel " << d.kernel << ": " << d.eab.summary()
                      << "\n    -> chose " << toString(d.chosen) << "\n";
        }
        const bool sm_better = records[1].result.cycles < base.cycles;
        const bool sac_chose_sm =
            !sac_run.sacDecisions.empty() &&
            sac_run.sacDecisions[0].chosen == LlcMode::SmSide;
        std::cout << "  simulator ground truth: "
                  << (sm_better ? "SM-side" : "memory-side")
                  << " is faster; SAC "
                  << (sm_better == sac_chose_sm ? "agreed" : "disagreed")
                  << ".\n";
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
