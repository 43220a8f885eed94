/**
 * @file
 * Figure 10: normalized effective LLC bandwidth broken down by where
 * responses originate — local LLC, remote LLC, local memory, remote
 * memory.
 *
 * Paper headline: for SP benchmarks SAC trades remote-LLC accesses
 * for local-LLC accesses; the effective LLC bandwidth improvement
 * explains the Figure 8 speedups.
 */

#include "bench/common.hh"

namespace {

using namespace sac;

void
study()
{
    const auto cfg = bench::defaultConfig();
    const auto picks = bench::pickBenchmarks(
        {"RN", "SN", "CFD", "BT", "GEMM", "SRAD", "STEN", "NN"});
    std::cerr << "Fig.10: 8 benchmarks x 5 organizations...\n";
    const auto results = bench::runMatrix(picks, cfg);

    report::banner(std::cout,
                   "Figure 10: LLC responses per cycle by origin "
                   "(localLLC/remoteLLC/localMem/remoteMem)");
    report::Table t({"benchmark", "organization", "local LLC",
                     "remote LLC", "local mem", "remote mem", "total"});
    for (const auto &r : results) {
        for (const auto kind : bench::allOrgs()) {
            const auto &res = r.byOrg.at(kind);
            t.addRow({r.profile.name, toString(kind),
                      report::num(res.bwLocalLlc),
                      report::num(res.bwRemoteLlc),
                      report::num(res.bwLocalMem),
                      report::num(res.bwRemoteMem),
                      report::num(res.effLlcBw)});
        }
    }
    t.print(std::cout);

    std::cout << "\nHeadline checks:\n";
    // SP benchmarks: SAC converts remote-LLC responses into local-LLC
    // responses relative to the memory-side baseline.
    const auto &rn = results[0];
    bench::paperCompare(
        std::cout, "RN: memory-side remote-LLC share", "high",
        report::num(rn.byOrg.at(OrgKind::MemorySide).bwRemoteLlc));
    bench::paperCompare(
        std::cout, "RN: SAC remote-LLC share", "~0 (traded for local)",
        report::num(rn.byOrg.at(OrgKind::Sac).bwRemoteLlc));
    bench::paperCompare(
        std::cout, "RN: SAC local-LLC share vs memory-side", "much higher",
        report::num(rn.byOrg.at(OrgKind::Sac).bwLocalLlc) + " vs " +
            report::num(rn.byOrg.at(OrgKind::MemorySide).bwLocalLlc));
    // Speedup-bandwidth correlation (Section 5.2).
    int correlated = 0;
    int total = 0;
    for (const auto &r : results) {
        for (const auto kind :
             {OrgKind::SmSide, OrgKind::StaticLlc, OrgKind::DynamicLlc,
              OrgKind::Sac}) {
            const bool faster = r.speedupOf(kind) > 1.0;
            const bool more_bw =
                r.byOrg.at(kind).effLlcBw >
                r.byOrg.at(OrgKind::MemorySide).effLlcBw;
            correlated += faster == more_bw ? 1 : 0;
            ++total;
        }
    }
    bench::paperCompare(
        std::cout, "speedup/effective-bandwidth correlation", "strong",
        std::to_string(correlated) + "/" + std::to_string(total) +
            " cases agree");
}

} // namespace

int
main()
{
    study();
    return 0;
}
