/**
 * @file
 * Table 3: the simulated baseline configuration — paper values next
 * to this reproduction's full-scale and default (scale-4) instances.
 */

#include "bench/common.hh"

namespace {

using namespace sac;

void
printTable()
{
    const auto full = GpuConfig::paperBaseline();
    const auto scaled = bench::defaultConfig();

    report::banner(std::cout, "Table 3: simulated baseline configuration");
    report::Table t({"parameter", "paper", "this repo (full)",
                     "this repo (scale 4)"});
    const auto row = [&](const char *name, const char *paper,
                         const std::string &f, const std::string &s) {
        t.addRow({name, paper, f, s});
    };
    row("chips", "4", std::to_string(full.numChips),
        std::to_string(scaled.numChips));
    row("SMs total", "256", std::to_string(full.totalClusters() * 2),
        std::to_string(scaled.totalClusters() * 2));
    row("NoC ports (SM clusters)", "32/chip",
        std::to_string(full.clustersPerChip) + "/chip",
        std::to_string(scaled.clustersPerChip) + "/chip");
    row("LLC slices", "64", std::to_string(full.totalSlices()),
        std::to_string(scaled.totalSlices()));
    row("LLC capacity", "16 MB",
        std::to_string(full.llcBytesTotal() >> 20) + " MB",
        std::to_string(scaled.llcBytesTotal() >> 20) + " MB");
    row("LLC bandwidth", "16 TB/s",
        report::num(full.sliceBw * full.totalSlices() / 1024.0, 1) + " TB/s",
        report::num(scaled.sliceBw * scaled.totalSlices() / 1024.0, 1) +
            " TB/s");
    row("DRAM channels", "32", std::to_string(full.totalChannels()),
        std::to_string(scaled.totalChannels()));
    row("DRAM bandwidth", "1.75 TB/s",
        report::num(full.dramChannelBw * full.totalChannels() / 1024.0, 2) +
            " TB/s",
        report::num(scaled.dramChannelBw * scaled.totalChannels() / 1024.0,
                    2) +
            " TB/s");
    row("inter-chip bandwidth", "768 GB/s ring",
        report::num(full.interChipBw * full.numChips / 2, 0) + " GB/s",
        report::num(scaled.interChipBw * scaled.numChips / 2, 0) + " GB/s");
    row("L1 per SM", "128 KB",
        std::to_string(full.l1BytesPerCluster / 2048) + " KB",
        std::to_string(scaled.l1BytesPerCluster / 2048) + " KB");
    row("line / page", "128 B / 4 KB",
        std::to_string(full.lineBytes) + " B / " +
            std::to_string(full.pageBytes / 1024) + " KB",
        std::to_string(scaled.lineBytes) + " B / " +
            std::to_string(scaled.pageBytes / 1024) + " KB");
    row("coherence", "software", toString(full.coherence),
        toString(scaled.coherence));
    t.print(std::cout);
    std::cout << "\nScaled instance divides resource counts, bandwidths "
                 "and data sets by 4,\npreserving every ratio the EAB "
                 "model compares (see DESIGN.md).\n";
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
