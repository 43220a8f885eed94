/**
 * @file
 * Figure 13: input-set sensitivity. The SM-side and SAC organizations
 * are swept across input scales (x8 ... /4 for SP benchmarks, x4 ...
 * /32 for MP benchmarks); speedups are relative to the memory-side
 * LLC at the same input.
 *
 * Paper headline: SAC selects the optimal organization across inputs —
 * it reverts to memory-side for the largest SP inputs (the replicated
 * shared set stops fitting) and switches to SM-side for the smallest
 * MP inputs (replication starts fitting).
 */

#include "bench/common.hh"

namespace {

using namespace sac;

std::string
scaleLabel(double s)
{
    std::string label = s >= 1.0 ? "x" : "/";
    label += report::num(s >= 1.0 ? s : 1.0 / s, 0);
    return label;
}

void
sweep(const char *name, const std::vector<double> &scales)
{
    const auto cfg = bench::defaultConfig();
    const auto base = findBenchmark(name);
    const std::vector<OrgKind> orgs = {OrgKind::MemorySide,
                                       OrgKind::SmSide, OrgKind::Sac};

    // The whole (scale × organization) grid as one parallel plan.
    ExperimentPlan plan;
    for (const double s : scales) {
        for (const auto org : orgs) {
            plan.add(base.withInputScale(s), cfg, org, 1,
                     std::string(name) + " " + scaleLabel(s) + "/" +
                         toString(org));
        }
    }
    const auto records = bench::runPlan(plan);

    report::Table t({"input scale", "SM-side speedup", "SAC speedup",
                     "SAC decision (k0)"});
    for (std::size_t i = 0; i < scales.size(); ++i) {
        const auto &mem = records[i * orgs.size() + 0].result;
        const auto &sm = records[i * orgs.size() + 1].result;
        const auto &sac = records[i * orgs.size() + 2].result;
        t.addRow({scaleLabel(scales[i]),
                  report::times(speedup(mem, sm)),
                  report::times(speedup(mem, sac)),
                  sac.sacDecisions.empty()
                      ? "?"
                      : toString(sac.sacDecisions[0].chosen)});
    }
    std::cout << "\n" << name << " ("
              << (base.smSidePreferred ? "SM-side preferred"
                                       : "memory-side preferred")
              << "):\n";
    t.print(std::cout);
}

} // namespace

void
sac::bench::fig13InputSensitivity()
{
    report::banner(std::cout,
                   "Figure 13: input-set sensitivity (speedup vs. "
                   "memory-side at the same input)");
    // SP benchmarks: growing inputs should eventually overwhelm
    // replication and flip the preference to memory-side.
    sweep("RN", {8.0, 2.0, 1.0, 0.25});
    sweep("CFD", {8.0, 2.0, 1.0, 0.25});
    // MP benchmarks: shrinking inputs make the shared set replicable.
    sweep("GEMM", {4.0, 1.0, 1.0 / 8.0, 1.0 / 32.0});
    sweep("STEN", {4.0, 1.0, 1.0 / 8.0, 1.0 / 32.0});

    std::cout << "\nHeadline check (paper): SAC tracks the better of the "
                 "two organizations at every input scale, choosing\n"
                 "SM-side when the replicated shared working set fits "
                 "and memory-side when it does not.\n";
}
