/**
 * @file
 * Figure 12: BFS's time-varying behaviour. BFS alternates a
 * memory-side-preferred kernel (K1) and an SM-side-preferred kernel
 * (K2); SAC chooses the optimal organization per kernel and thereby
 * beats even the pure SM-side LLC on the whole application.
 */

#include "bench/common.hh"

namespace {

using namespace sac;

void
study()
{
    const auto cfg = bench::defaultConfig();
    const auto bfs = findBenchmark("BFS");

    std::cerr << "Fig.12: BFS under memory-side / SM-side / SAC...\n";
    ExperimentPlan plan;
    plan.addOrgSweep(bfs, cfg,
                     {OrgKind::MemorySide, OrgKind::SmSide, OrgKind::Sac});
    const auto records = bench::runPlan(plan);
    const auto &mem = records[0].result;
    const auto &sm = records[1].result;
    const auto &sac = records[2].result;

    report::banner(std::cout,
                   "Figure 12: BFS per-kernel performance relative to "
                   "the memory-side LLC");
    report::Table t({"kernel", "phase", "SM-side speedup", "SAC speedup",
                     "SAC decision"});
    for (std::size_t k = 0; k < mem.kernelCycles.size(); ++k) {
        const double sm_sp = static_cast<double>(mem.kernelCycles[k]) /
                             static_cast<double>(sm.kernelCycles[k]);
        const double sac_sp = static_cast<double>(mem.kernelCycles[k]) /
                              static_cast<double>(sac.kernelCycles[k]);
        const char *phase = k % 2 == 0 ? "K1 (expand)" : "K2 (contract)";
        const char *decision =
            k < sac.sacDecisions.size()
                ? toString(sac.sacDecisions[k].chosen)
                : "?";
        t.addRow({std::to_string(k), phase, report::times(sm_sp),
                  report::times(sac_sp), decision});
    }
    t.addRow({"overall", "", report::times(speedup(mem, sm)),
              report::times(speedup(mem, sac)), ""});
    t.print(std::cout);

    std::cout << "\nHeadline checks:\n";
    bench::paperCompare(std::cout,
                        "SAC picks memory-side for K1, SM-side for K2",
                        "yes",
                        (sac.sacDecisions.size() >= 2 &&
                         sac.sacDecisions[0].chosen ==
                             LlcMode::MemorySide &&
                         sac.sacDecisions[1].chosen == LlcMode::SmSide)
                            ? "yes"
                            : "no");
    bench::paperCompare(
        std::cout, "SAC beats the pure SM-side LLC on BFS", "yes",
        speedup(mem, sac) > speedup(mem, sm) ? "yes" : "no");
}

/** Ablation: profiling-window length sensitivity on BFS decisions. */
void
windowAblation()
{
    report::banner(std::cout,
                   "Ablation: profiling window (requests) vs. SAC "
                   "decisions on BFS");
    report::Table t({"min requests", "K1 decision", "K2 decision",
                     "overall speedup vs mem-side"});
    const auto bfs = findBenchmark("BFS");
    const std::vector<std::uint64_t> windows = {10000, 40000, 120000};
    ExperimentPlan plan;
    for (const std::uint64_t reqs : windows) {
        auto cfg = bench::defaultConfig();
        cfg.sac.profileMinRequests = reqs;
        plan.addOrgSweep(bfs, cfg, {OrgKind::MemorySide, OrgKind::Sac});
    }
    const auto records = bench::runPlan(plan);
    for (std::size_t w = 0; w < windows.size(); ++w) {
        const auto &mem = records[w * 2].result;
        const auto &sac = records[w * 2 + 1].result;
        t.addRow({std::to_string(windows[w]),
                  sac.sacDecisions.size() > 0
                      ? toString(sac.sacDecisions[0].chosen)
                      : "?",
                  sac.sacDecisions.size() > 1
                      ? toString(sac.sacDecisions[1].chosen)
                      : "?",
                  report::times(speedup(mem, sac))});
    }
    t.print(std::cout);
}

} // namespace

void
sac::bench::fig12TimeVarying()
{
    study();
    windowAblation();
}
