/**
 * @file
 * Figure 14: design-space sensitivity of SAC (speedups relative to
 * the memory-side LLC in the same configuration). Axes from the
 * paper: inter-chip link bandwidth (PCIe ... MCM interposer), LLC
 * capacity, memory interface (GDDR5/GDDR6/HBM2), coherence protocol,
 * GPU count, sectored caches and page size. A theta-threshold
 * ablation is appended (the paper fixes theta = 5%).
 *
 * Paper headlines: SAC's benefit shrinks with inter-chip bandwidth,
 * grows with LLC capacity and memory bandwidth, grows with GPU count,
 * survives sectoring, and is insensitive to page size.
 */

#include <functional>

#include "bench/common.hh"

namespace {

using namespace sac;

/** Speedup of SM-side and SAC vs memory-side, hmean over a 1+1 mix. */
struct AxisPoint
{
    double smSide = 0.0;
    double sac = 0.0;
};

AxisPoint
evaluate(const GpuConfig &cfg, double apw_scale = 1.0)
{
    const auto picks = bench::pickBenchmarks({"RN", "GEMM"});
    const auto results = bench::runMatrix(
        picks, cfg, apw_scale, 1,
        {OrgKind::MemorySide, OrgKind::SmSide, OrgKind::Sac});
    const auto h = bench::hmeanSpeedups(results);
    return {h.at(OrgKind::SmSide), h.at(OrgKind::Sac)};
}

void
axis(const char *title, report::Table &t,
     const std::vector<std::pair<std::string,
                                 std::function<GpuConfig()>>> &points)
{
    for (const auto &[label, make] : points) {
        std::cerr << "Fig.14 [" << title << " / " << label << "]\n";
        const auto p = evaluate(make());
        t.addRow({title, label, report::times(p.smSide),
                  report::times(p.sac)});
    }
}

void
study()
{
    report::banner(std::cout,
                   "Figure 14: SAC across the design space (hmean "
                   "speedup vs. memory-side, RN+GEMM mix; * = "
                   "baseline)");
    report::Table t({"axis", "configuration", "SM-side", "SAC"});

    // Inter-chip bandwidth (per-chip aggregate scales with per-link).
    axis("inter-chip BW", t,
         {{"48 GB/s (PCIe-like)",
           [] {
               auto c = bench::defaultConfig();
               c.interChipBw = 48.0;
               return c;
           }},
          {"96 GB/s *", [] { return bench::defaultConfig(); }},
          {"192 GB/s",
           [] {
               auto c = bench::defaultConfig();
               c.interChipBw = 192.0;
               return c;
           }},
          {"384 GB/s (MCM-like)",
           [] {
               auto c = bench::defaultConfig();
               c.interChipBw = 384.0;
               return c;
           }}});

    // LLC capacity.
    axis("LLC capacity", t,
         {{"0.5x",
           [] {
               auto c = bench::defaultConfig();
               c.llcBytesPerChip /= 2;
               return c;
           }},
          {"1x *", [] { return bench::defaultConfig(); }},
          {"2x",
           [] {
               auto c = bench::defaultConfig();
               c.llcBytesPerChip *= 2;
               return c;
           }}});

    // Memory interface.
    axis("memory interface", t,
         {{"GDDR5 (~0.5x)",
           [] {
               auto c = bench::defaultConfig();
               c.dramChannelBw *= 0.5;
               return c;
           }},
          {"GDDR6 *", [] { return bench::defaultConfig(); }},
          {"HBM2 (~2x)",
           [] {
               auto c = bench::defaultConfig();
               c.dramChannelBw *= 2.0;
               return c;
           }}});

    // Coherence protocol.
    axis("coherence", t,
         {{"software *", [] { return bench::defaultConfig(); }},
          {"hardware",
           [] {
               auto c = bench::defaultConfig();
               c.coherence = CoherenceKind::Hardware;
               return c;
           }}});

    // GPU count (total inter-chip bandwidth held constant, as in the
    // paper's 2-GPU experiment).
    axis("GPU count", t,
         {{"2 GPUs",
           [] {
               auto c = bench::defaultConfig();
               c.numChips = 2;
               c.interChipBw *= 2.0;
               return c;
           }},
          {"4 GPUs *", [] { return bench::defaultConfig(); }}});

    // Sectored caches.
    axis("sectored cache", t,
         {{"conventional *", [] { return bench::defaultConfig(); }},
          {"4 sectors/line",
           [] {
               auto c = bench::defaultConfig();
               c.sectorsPerLine = 4;
               return c;
           }}});

    // Page size.
    axis("page size", t,
         {{"4 KB *", [] { return bench::defaultConfig(); }},
          {"64 KB",
           [] {
               auto c = bench::defaultConfig();
               c.pageBytes = 65536;
               return c;
           }}});

    t.print(std::cout);

    // Theta ablation (design choice called out in DESIGN.md).
    report::banner(std::cout,
                   "Ablation: EAB comparison threshold theta (paper: 5%)");
    report::Table ta({"theta", "SAC hmean speedup"});
    for (const double theta : {0.0, 0.05, 0.2}) {
        auto c = bench::defaultConfig();
        c.sac.theta = theta;
        std::cerr << "Fig.14 [theta " << theta << "]\n";
        const auto p = evaluate(c);
        ta.addRow({report::percent(theta), report::times(p.sac)});
    }
    ta.print(std::cout);

    std::cout << "\nHeadline checks (paper): SAC's gain over the "
                 "memory-side LLC decreases as inter-chip bandwidth "
                 "grows, increases\nwith LLC capacity and memory "
                 "bandwidth, increases with GPU count, survives "
                 "sectoring and page-size changes.\n";
}

} // namespace

int
main()
{
    study();
    return 0;
}
