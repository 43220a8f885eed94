#include "sim/wss.hh"

#include <bit>
#include <unordered_map>

#include "common/log.hh"

namespace sac {

WorkingSetAnalyzer::WorkingSetAnalyzer(const GpuConfig &cfg,
                                       SharingTraceGen &gen)
    : cfg_(cfg), gen_(gen)
{
}

WorkingSetSample
WorkingSetAnalyzer::measure(std::uint64_t window_accesses,
                            std::uint64_t total_accesses)
{
    SAC_ASSERT(window_accesses > 0, "window must be positive");
    const double line_mb =
        static_cast<double>(cfg_.lineBytes) / (1024.0 * 1024.0);

    WorkingSetSample out;
    out.windowAccesses = window_accesses;

    // line -> bitmask of chips that touched it in the current window.
    std::unordered_map<Addr, std::uint32_t> touched;
    touched.reserve(window_accesses * 2);

    std::uint64_t issued = 0;
    std::uint64_t windows = 0;
    double true_mb = 0.0;
    double true_repl_mb = 0.0;
    double false_mb = 0.0;
    double non_mb = 0.0;

    const auto close_window = [&]() {
        std::uint64_t true_lines = 0;
        std::uint64_t true_copies = 0;
        std::uint64_t false_lines = 0;
        std::uint64_t non_lines = 0;
        for (const auto &[line, mask] : touched) {
            switch (gen_.classify(line)) {
              case SharingClass::TrueShared:
                ++true_lines;
                true_copies += static_cast<std::uint64_t>(
                    std::popcount(mask));
                break;
              case SharingClass::FalseShared:
                ++false_lines;
                break;
              case SharingClass::Private:
                ++non_lines;
                break;
            }
        }
        true_mb += static_cast<double>(true_lines) * line_mb;
        true_repl_mb += static_cast<double>(true_copies) * line_mb;
        false_mb += static_cast<double>(false_lines) * line_mb;
        non_mb += static_cast<double>(non_lines) * line_mb;
        ++windows;
        touched.clear();
    };

    // Round-robin replay across all warps in the system.
    while (issued < total_accesses) {
        for (ChipId chip = 0; chip < cfg_.numChips; ++chip) {
            for (ClusterId cl = 0; cl < cfg_.clustersPerChip; ++cl) {
                for (int w = 0;
                     w < cfg_.warpsPerCluster && issued < total_accesses;
                     ++w) {
                    const auto acc = gen_.next(chip, cl, w);
                    touched[acc.lineAddr] |= 1u << chip;
                    ++issued;
                    if (issued % window_accesses == 0)
                        close_window();
                }
            }
        }
    }
    if (!touched.empty())
        close_window();

    if (windows > 0) {
        const auto w = static_cast<double>(windows);
        out.trueSharedMB = true_mb / w;
        out.trueSharedReplicatedMB = true_repl_mb / w;
        out.falseSharedMB = false_mb / w;
        out.nonSharedMB = non_mb / w;
    }
    return out;
}

} // namespace sac
