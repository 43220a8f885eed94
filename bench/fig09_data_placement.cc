/**
 * @file
 * Figure 9: fraction of the LLC caching local versus remote data per
 * organization.
 *
 * Paper headline: the memory-side LLC holds local data only; Static
 * holds ~50/50; Dynamic and SM-side cache more remote data for the
 * SP benchmarks; SAC allocates a large remote fraction for SP
 * benchmarks and *only local data* for MP benchmarks.
 */

#include "bench/common.hh"

void
sac::bench::fig09DataPlacement()
{
    const auto cfg = bench::defaultConfig();
    const auto picks = bench::pickBenchmarks(
        {"RN", "SN", "CFD", "BT", "GEMM", "SRAD", "STEN", "NN"});
    std::cerr << "Fig.9: 8 benchmarks x 5 organizations...\n";
    const auto results = bench::runMatrix(picks, cfg);

    report::banner(std::cout,
                   "Figure 9: fraction of valid LLC lines holding REMOTE "
                   "data (rest is local)");
    report::Table t({"benchmark", "group", "Memory-side", "SM-side",
                     "Static", "Dynamic", "SAC"});
    for (const auto &r : results) {
        t.addRow({r.profile.name, r.profile.smSidePreferred ? "SP" : "MP",
                  report::percent(
                      r.byOrg.at(OrgKind::MemorySide).llcRemoteFraction),
                  report::percent(
                      r.byOrg.at(OrgKind::SmSide).llcRemoteFraction),
                  report::percent(
                      r.byOrg.at(OrgKind::StaticLlc).llcRemoteFraction),
                  report::percent(
                      r.byOrg.at(OrgKind::DynamicLlc).llcRemoteFraction),
                  report::percent(
                      r.byOrg.at(OrgKind::Sac).llcRemoteFraction)});
    }
    t.print(std::cout);

    std::cout << "\nHeadline checks:\n";
    double sac_sp = 0.0;
    double sac_mp = 0.0;
    int nsp = 0;
    int nmp = 0;
    for (const auto &r : results) {
        if (r.profile.smSidePreferred) {
            sac_sp += r.byOrg.at(OrgKind::Sac).llcRemoteFraction;
            ++nsp;
        } else {
            sac_mp += r.byOrg.at(OrgKind::Sac).llcRemoteFraction;
            ++nmp;
        }
    }
    bench::paperCompare(std::cout,
                        "memory-side caches remote data", "never (0%)",
                        report::percent(results[0]
                                            .byOrg.at(OrgKind::MemorySide)
                                            .llcRemoteFraction));
    bench::paperCompare(std::cout, "SAC remote fraction, SP group",
                        "large",
                        report::percent(sac_sp / nsp));
    bench::paperCompare(std::cout, "SAC remote fraction, MP group",
                        "~0% (local only)",
                        report::percent(sac_mp / nmp));
}
