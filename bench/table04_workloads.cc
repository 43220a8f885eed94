/**
 * @file
 * Table 4: the 16 simulated workloads. For each benchmark we replay
 * its generated access stream and measure the realized footprint and
 * truly/falsely shared bytes, printed next to the paper's columns
 * (which parameterize the generators — this validates that the
 * synthetic streams actually realize the published sharing
 * structure). Values are measured at scale 4 and reported scaled
 * back to full-scale MB.
 */

#include <unordered_map>

#include "bench/common.hh"
#include "workload/tracegen.hh"

namespace {

using namespace sac;

struct Measured
{
    double footprintMB = 0.0;
    double trueMB = 0.0;
    double falseMB = 0.0;
};

Measured
measure(const WorkloadProfile &profile, const GpuConfig &cfg,
        std::uint64_t accesses)
{
    const auto scaled = profile.scaledData(dataScale(cfg));
    SharingTraceGen gen(scaled, cfg, 1);

    // line -> chips that touched it.
    std::unordered_map<Addr, std::uint32_t> touched;
    std::uint64_t issued = 0;
    while (issued < accesses) {
        for (ChipId chip = 0; chip < cfg.numChips && issued < accesses;
             ++chip) {
            for (ClusterId cl = 0; cl < cfg.clustersPerChip; ++cl) {
                for (int w = 0; w < 8; ++w, ++issued) {
                    const auto acc = gen.next(chip, cl, w);
                    touched[acc.lineAddr] |= 1u << chip;
                }
            }
        }
    }

    // Classify: a line is truly shared when touched by >1 chip; it is
    // falsely shared when single-chip but its page is multi-chip.
    std::unordered_map<Addr, std::uint32_t> page_chips;
    for (const auto &[line, chips] : touched)
        page_chips[line / cfg.pageBytes] |= chips;

    const double line_mb =
        static_cast<double>(cfg.lineBytes) / (1024.0 * 1024.0);
    Measured m;
    for (const auto &[line, chips] : touched) {
        m.footprintMB += line_mb;
        if (std::popcount(chips) > 1) {
            m.trueMB += line_mb;
        } else if (std::popcount(page_chips[line / cfg.pageBytes]) > 1) {
            m.falseMB += line_mb;
        }
    }
    // Report back at full scale.
    const double up = dataScale(cfg);
    m.footprintMB *= up;
    m.trueMB *= up;
    m.falseMB *= up;
    return m;
}

void
printTable()
{
    const auto cfg = bench::defaultConfig();
    report::banner(std::cout,
                   "Table 4: simulated workloads (paper | measured from "
                   "generated streams, full-scale MB)");
    report::Table t({"benchmark", "group", "CTAs", "footprint",
                     "true-shared", "false-shared"});
    for (const auto &p : benchmarkSuite()) {
        std::cerr << "  [" << p.name << "] measuring..." << std::flush;
        const auto m = measure(p, cfg, 2'000'000);
        std::cerr << " done\n";
        t.addRow({p.name, p.smSidePreferred ? "SP" : "MP",
                  std::to_string(p.ctas),
                  report::num(p.footprintMB, 0) + " | " +
                      report::num(m.footprintMB, 0),
                  report::num(p.trueSharedMB, 0) + " | " +
                      report::num(m.trueMB, 0),
                  report::num(p.falseSharedMB, 0) + " | " +
                      report::num(m.falseMB, 0)});
    }
    t.print(std::cout);
    std::cout << "\nMeasured footprints are bounded by the accesses "
                 "replayed (2M); huge-footprint\nbenchmarks (SRAD, NN, "
                 "...) only touch their hot sets plus a streamed tail, "
                 "as on\nthe real machine within a comparable window.\n";
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
