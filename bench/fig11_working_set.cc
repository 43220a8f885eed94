/**
 * @file
 * Figure 11: working-set size by sharing class (true-shared,
 * false-shared, non-shared) across time windows, against the total
 * LLC capacity line.
 *
 * Paper headline: SP benchmarks have a small truly shared working set
 * whose replication fits in the LLC; MP benchmarks' truly shared
 * working sets, once replicated, exceed the 16 MB aggregate capacity
 * over large windows.
 */

#include "bench/common.hh"
#include "sim/wss.hh"
#include "workload/tracegen.hh"

namespace {

using namespace sac;

void
study()
{
    const auto cfg = bench::defaultConfig();
    const double up = dataScale(cfg);
    const double llc_mb =
        static_cast<double>(cfg.llcBytesTotal()) / (1024.0 * 1024.0) * up;

    report::banner(std::cout,
                   "Figure 11: working set (full-scale MB) by sharing "
                   "class per access window");
    std::cout << "Total LLC capacity line: " << report::num(llc_mb, 0)
              << " MB. 'true(repl)' is the truly shared set times its\n"
                 "sharer count — what an SM-side LLC must hold.\n\n";

    report::Table t({"benchmark", "group", "window", "true", "true(repl)",
                     "false", "non-shared", "repl total"});
    // Windows in accesses; the paper uses 1K-100K cycles, which at
    // its ~100 LLC accesses/cycle corresponds to ~100K-10M accesses;
    // scaled down by the topology factor.
    const std::vector<std::uint64_t> windows = {6000, 25000, 100000,
                                                400000};
    for (const auto &name :
         {"RN", "SN", "CFD", "BS", "GEMM", "SRAD", "STEN", "NN"}) {
        const auto profile =
            findBenchmark(name).scaledData(dataScale(cfg));
        std::cerr << "  [" << name << "] replaying..." << std::flush;
        SharingTraceGen gen(profile, cfg, 1);
        WorkingSetAnalyzer wss(cfg, gen);
        for (const auto w : windows) {
            const auto s = wss.measure(w, std::max<std::uint64_t>(
                                              4 * w, 200000));
            t.addRow({name,
                      findBenchmark(name).smSidePreferred ? "SP" : "MP",
                      std::to_string(w),
                      report::num(s.trueSharedMB * up, 1),
                      report::num(s.trueSharedReplicatedMB * up, 1),
                      report::num(s.falseSharedMB * up, 1),
                      report::num(s.nonSharedMB * up, 1),
                      report::num(s.totalReplicatedMB() * up, 1) +
                          (s.totalReplicatedMB() * up > llc_mb ? " >LLC"
                                                               : "")});
        }
        std::cerr << " done\n";
    }
    t.print(std::cout);

    std::cout << "\nHeadline check: for SP benchmarks the replicated "
                 "working set stays below the "
              << report::num(llc_mb, 0)
              << " MB line over large windows;\nfor MP benchmarks it "
                 "crosses it (replication thrashes, Fig. 11's red "
                 "line).\n";
}

} // namespace

int
main()
{
    study();
    return 0;
}
