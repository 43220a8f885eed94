/**
 * @file
 * Figure 1: performance, LLC miss rate and effective LLC bandwidth
 * for the five LLC organizations, grouped into SM-side preferred (SP)
 * and memory-side preferred (MP) benchmarks.
 *
 * Paper headline: SP benchmarks run 91% faster SM-side than
 * memory-side, MP benchmarks 32% faster memory-side than SM-side, the
 * SM-side LLC uniformly misses more, and SAC attains the highest
 * effective LLC bandwidth in both groups.
 *
 * This figure uses three representative benchmarks per group;
 * fig08_speedup.cc covers all sixteen.
 */

#include "bench/common.hh"

namespace {

using namespace sac;
using bench::BenchResults;

void
printGroup(const char *title, const std::vector<BenchResults> &results)
{
    report::banner(std::cout, std::string("Figure 1 — ") + title);
    report::Table t({"organization", "speedup (hmean)", "LLC miss rate",
                     "eff LLC BW (resp/cy)"});
    const auto hmean = bench::hmeanSpeedups(results);
    for (const auto kind : ExperimentPlan::allOrganizations()) {
        double miss = 0.0;
        double bw = 0.0;
        for (const auto &r : results) {
            miss += r.byOrg.at(kind).llcMissRate();
            bw += r.byOrg.at(kind).effLlcBw;
        }
        miss /= static_cast<double>(results.size());
        bw /= static_cast<double>(results.size());
        t.addRow({toString(kind), report::times(hmean.at(kind)),
                  report::percent(miss), report::num(bw)});
    }
    t.print(std::cout);
}

} // namespace

void
sac::bench::fig01Motivation()
{
    const auto cfg = bench::defaultConfig();
    const auto sp = bench::pickBenchmarks({"RN", "SN", "CFD"});
    const auto mp = bench::pickBenchmarks({"GEMM", "SRAD", "NN"});

    std::cerr << "Fig.1 SP group...\n";
    const auto sp_results = bench::runMatrix(sp, cfg);
    std::cerr << "Fig.1 MP group...\n";
    const auto mp_results = bench::runMatrix(mp, cfg);

    printGroup("SM-side preferred group (a,b,c)", sp_results);
    printGroup("memory-side preferred group (a,b,c)", mp_results);

    const auto sp_h = bench::hmeanSpeedups(sp_results);
    const auto mp_h = bench::hmeanSpeedups(mp_results);
    std::cout << "\nHeadline checks:\n";
    bench::paperCompare(
        std::cout, "SP: SM-side vs memory-side", "+91%",
        report::percent(sp_h.at(OrgKind::SmSide) - 1.0));
    bench::paperCompare(
        std::cout, "MP: memory-side vs SM-side", "+32%",
        report::percent(1.0 / mp_h.at(OrgKind::SmSide) - 1.0));
    bench::paperCompare(
        std::cout, "SM-side misses more than memory-side (both groups)",
        "yes",
        (sp_results[0].byOrg.at(OrgKind::SmSide).llcMissRate() >
             sp_results[0].byOrg.at(OrgKind::MemorySide).llcMissRate()
         ? "yes"
         : "no"));
}
