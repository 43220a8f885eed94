/**
 * @file
 * Ablations for the design choices DESIGN.md calls out beyond the
 * paper's own sweeps:
 *
 *  1. CRD geometry (sets x ways): prediction quality of the SM-side
 *     hit rate against the simulator's ground truth, for a
 *     replication-friendly (RN) and a thrashing (GEMM) workload.
 *  2. Dynamic-LLC repartitioning epoch: how reactive the Milic-style
 *     heuristic needs to be.
 */

#include "bench/common.hh"

namespace {

using namespace sac;

void
crdGeometryAblation()
{
    report::banner(std::cout,
                   "Ablation: CRD geometry vs. SM-side hit-rate "
                   "prediction (paper: 8x16)");
    report::Table t({"benchmark", "CRD sets x ways", "predicted hitSm",
                     "measured SM-side hit", "decision"});
    const std::vector<const char *> names = {"RN", "GEMM"};
    const std::vector<int> geometries = {2, 8, 32};

    // One plan per benchmark: the SM-side ground truth plus one SAC
    // run per CRD geometry (jobs differ in config, not workload).
    ExperimentPlan plan;
    for (const char *name : names) {
        const auto &profile = findBenchmark(name);
        plan.add(profile, bench::defaultConfig(), OrgKind::SmSide, 1,
                 std::string(name) + "/ground-truth");
        for (const int sets : geometries) {
            auto cfg = bench::defaultConfig();
            cfg.sac.crdSets = sets;
            plan.add(profile, cfg, OrgKind::Sac, 1,
                     std::string(name) + "/crd-" + std::to_string(sets));
        }
    }
    const auto records = bench::runPlan(plan);

    const std::size_t stride = 1 + geometries.size();
    for (std::size_t n = 0; n < names.size(); ++n) {
        const auto &sm = records[n * stride].result;
        for (std::size_t g = 0; g < geometries.size(); ++g) {
            const auto &job = plan[n * stride + 1 + g];
            const auto &sac = records[n * stride + 1 + g].result;
            const auto &d = sac.sacDecisions.front();
            t.addRow({names[n],
                      std::to_string(geometries[g]) + "x" +
                          std::to_string(job.config.sac.crdWays),
                      report::percent(d.inputs.hitSm),
                      report::percent(sm.llcHitRate()),
                      toString(d.chosen)});
        }
    }
    t.print(std::cout);
    std::cout << "\nSmaller CRDs under-predict fitting working sets "
                 "(spurious capacity evictions); the default geometry "
                 "keeps the fit/thrash separation.\n";
}

void
dynamicEpochAblation()
{
    report::banner(std::cout,
                   "Ablation: Dynamic-LLC repartitioning epoch "
                   "(default 10K cycles)");
    report::Table t({"epoch (cycles)", "RN speedup", "GEMM speedup"});
    const std::vector<Cycle> epochs = {2000, 10000, 50000};
    const std::vector<OrgKind> orgs = {OrgKind::MemorySide,
                                       OrgKind::DynamicLlc};

    ExperimentPlan plan;
    for (const Cycle epoch : epochs) {
        auto cfg = bench::defaultConfig();
        cfg.dynamicLlc.epoch = epoch;
        for (const char *name : {"RN", "GEMM"})
            plan.addOrgSweep(findBenchmark(name), cfg, orgs, 1);
    }
    const auto records = bench::runPlan(plan);

    // Per epoch: [RN/mem, RN/dyn, GEMM/mem, GEMM/dyn].
    for (std::size_t e = 0; e < epochs.size(); ++e) {
        const auto *r = &records[e * 4];
        t.addRow({std::to_string(epochs[e]),
                  report::times(speedup(r[0].result, r[1].result)),
                  report::times(speedup(r[2].result, r[3].result))});
    }
    t.print(std::cout);
}

} // namespace

int
main()
{
    crdGeometryAblation();
    dynamicEpochAblation();
    return 0;
}
