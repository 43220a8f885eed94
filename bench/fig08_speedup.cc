/**
 * @file
 * Figure 8: speedup of the SM-side, Static, Dynamic and SAC LLC
 * organizations relative to the memory-side baseline across all 16
 * benchmarks, with group and overall harmonic means.
 *
 * Paper headline: SAC outperforms the memory-side LLC by 76%, the
 * SM-side LLC by 12%, the Static (L1.5) LLC by 31% and the Dynamic
 * LLC by 18% on average.
 */

#include "bench/common.hh"

void
sac::bench::fig08Speedup()
{
    const auto cfg = bench::defaultConfig();
    std::cerr << "Fig.8: full 16-benchmark sweep (5 organizations "
                 "each)...\n";
    const auto results = bench::runMatrix(benchmarkSuite(), cfg);

    report::banner(std::cout,
                   "Figure 8: speedup vs. memory-side LLC (all 16 "
                   "benchmarks)");
    report::Table t({"benchmark", "group", "SM-side", "Static", "Dynamic",
                     "SAC"});
    for (const auto &r : results) {
        t.addRow({r.profile.name, r.profile.smSidePreferred ? "SP" : "MP",
                  report::times(r.speedupOf(OrgKind::SmSide)),
                  report::times(r.speedupOf(OrgKind::StaticLlc)),
                  report::times(r.speedupOf(OrgKind::DynamicLlc)),
                  report::times(r.speedupOf(OrgKind::Sac))});
    }

    std::vector<bench::BenchResults> sp;
    std::vector<bench::BenchResults> mp;
    for (const auto &r : results)
        (r.profile.smSidePreferred ? sp : mp).push_back(r);
    const auto sp_h = bench::hmeanSpeedups(sp);
    const auto mp_h = bench::hmeanSpeedups(mp);
    const auto all_h = bench::hmeanSpeedups(results);

    const auto hrow = [&](const char *name,
                          const std::map<OrgKind, double> &h) {
        t.addRow({name, "",
                  report::times(h.at(OrgKind::SmSide)),
                  report::times(h.at(OrgKind::StaticLlc)),
                  report::times(h.at(OrgKind::DynamicLlc)),
                  report::times(h.at(OrgKind::Sac))});
    };
    hrow("HMEAN (SP)", sp_h);
    hrow("HMEAN (MP)", mp_h);
    hrow("HMEAN (all)", all_h);
    t.print(std::cout);

    std::cout << "\nHeadline checks:\n";
    const double sac = all_h.at(OrgKind::Sac);
    bench::paperCompare(std::cout, "SAC vs memory-side", "+76%",
                        report::percent(sac - 1.0));
    bench::paperCompare(
        std::cout, "SAC vs SM-side", "+12%",
        report::percent(sac / all_h.at(OrgKind::SmSide) - 1.0));
    bench::paperCompare(
        std::cout, "SAC vs Static", "+31%",
        report::percent(sac / all_h.at(OrgKind::StaticLlc) - 1.0));
    bench::paperCompare(
        std::cout, "SAC vs Dynamic", "+18%",
        report::percent(sac / all_h.at(OrgKind::DynamicLlc) - 1.0));

    double best_vs_mem = 0.0;
    double best_vs_sm = 0.0;
    for (const auto &r : results) {
        best_vs_mem = std::max(best_vs_mem, r.speedupOf(OrgKind::Sac));
        best_vs_sm = std::max(best_vs_sm, r.speedupOf(OrgKind::Sac) /
                                              r.speedupOf(OrgKind::SmSide));
    }
    bench::paperCompare(std::cout, "SAC max vs memory-side", "+157%",
                        report::percent(best_vs_mem - 1.0));
    bench::paperCompare(std::cout, "SAC max vs SM-side", "+49%",
                        report::percent(best_vs_sm - 1.0));
}
