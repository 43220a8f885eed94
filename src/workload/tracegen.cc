#include "workload/tracegen.hh"

#include <algorithm>
#include <cmath>

#include "common/bitutil.hh"
#include "common/log.hh"

namespace sac {

namespace {

/** Converts megabytes to a line count, rounding up. */
std::uint64_t
mbToLines(double mb, unsigned line_bytes)
{
    if (mb <= 0.0)
        return 0;
    return ceilDiv(static_cast<std::uint64_t>(mb * 1024.0 * 1024.0),
                   line_bytes);
}

} // namespace

SharingTraceGen::SharingTraceGen(const WorkloadProfile &profile,
                                 const GpuConfig &cfg, std::uint64_t seed)
    : profile_(profile),
      numChips(cfg.numChips),
      clustersPerChip(cfg.clustersPerChip),
      warpsPerCluster(cfg.warpsPerCluster),
      lineBytes(cfg.lineBytes),
      pageBytes(cfg.pageBytes),
      linesPerPage(cfg.linesPerPage()),
      sectorsPerLine(cfg.sectorsPerLine)
{
    trueLines_ = mbToLines(profile.trueSharedMB, lineBytes);
    const auto false_lines = mbToLines(profile.falseSharedMB, lineBytes);
    falsePages_ = ceilDiv(false_lines, linesPerPage);
    // Each chip needs at least one line slot per falsely shared page.
    if (falsePages_ > 0 && linesPerPage < static_cast<unsigned>(numChips))
        fatal("page must hold at least one line per chip for false sharing");
    const auto priv_lines = mbToLines(profile_.privateMB(), lineBytes);
    privLinesPerChip =
        std::max<std::uint64_t>(1, priv_lines /
                                       static_cast<std::uint64_t>(numChips));

    // Page-aligned region layout.
    const Addr true_bytes =
        ceilDiv(std::max<std::uint64_t>(trueLines_, 1) * lineBytes,
                pageBytes) *
        pageBytes;
    falseBase = true_bytes;
    privBase = falseBase + std::max<std::uint64_t>(falsePages_, 1) *
                               pageBytes;

    const auto streams = static_cast<std::size_t>(numChips) *
                         static_cast<std::size_t>(clustersPerChip) *
                         static_cast<std::size_t>(warpsPerCluster);
    rngs.reserve(streams);
    for (std::size_t i = 0; i < streams; ++i)
        rngs.emplace_back(seed, 0xace1000 + i);
    recents.resize(streams);

    beginKernel(0);
}

void
SharingTraceGen::beginKernel(int kernel_index)
{
    active = profile_.phase(kernel_index);

    // Redistribute the access mix away from empty regions.
    effTrueFrac = trueLines_ > 0 ? active.trueFrac : 0.0;
    effFalseFrac = falsePages_ > 0 ? active.falseFrac : 0.0;

    activeTrueLines = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(trueLines_) *
                                      active.trueRegionFrac));
    activeTrueLines = std::min(
        activeTrueLines, std::max<std::uint64_t>(trueLines_, 1));

    hotTrueLines = std::clamp<std::uint64_t>(
        mbToLines(active.trueHotMB, lineBytes), 1, activeTrueLines);
    hotFalsePages = std::clamp<std::uint64_t>(
        ceilDiv(mbToLines(active.falseHotMB, lineBytes), linesPerPage), 1,
        std::max<std::uint64_t>(falsePages_, 1));
    hotPrivLines = std::clamp<std::uint64_t>(
        mbToLines(active.privHotMB, lineBytes) /
            static_cast<std::uint64_t>(numChips),
        1, privLinesPerChip);

    // Warp reuse buffers restart with the kernel.
    for (auto &r : recents)
        r = Recent{};
}

std::size_t
SharingTraceGen::streamIndex(ChipId chip, ClusterId cluster, int warp) const
{
    const auto idx =
        (static_cast<std::size_t>(chip) *
             static_cast<std::size_t>(clustersPerChip) +
         static_cast<std::size_t>(cluster)) *
            static_cast<std::size_t>(warpsPerCluster) +
        static_cast<std::size_t>(warp);
    SAC_ASSERT(idx < rngs.size(), "trace stream out of range");
    return idx;
}

std::uint64_t
SharingTraceGen::hotDraw(Rng &rng, std::uint64_t population,
                         std::uint64_t hot, double hot_frac)
{
    SAC_ASSERT(population > 0 && hot > 0 && hot <= population,
               "bad hot-set shape");
    if (population == hot || rng.nextDouble() < hot_frac)
        return rng.nextBounded(hot);
    return hot + rng.nextBounded(population - hot);
}

Addr
SharingTraceGen::trueAddr(Rng &rng) const
{
    const auto line =
        hotDraw(rng, activeTrueLines, hotTrueLines, active.trueHotFrac);
    return line * lineBytes;
}

Addr
SharingTraceGen::falseAddr(ChipId chip, Rng &rng) const
{
    const auto page =
        hotDraw(rng, falsePages_, hotFalsePages, active.falseHotFrac);
    const auto slots = linesPerPage / static_cast<unsigned>(numChips);
    const auto slot = rng.nextBounded(std::max<std::uint64_t>(1, slots));
    // Interleave per-chip lines within the page: chip c owns lines
    // {c, c+numChips, c+2*numChips, ...}.
    const auto line_in_page =
        static_cast<std::uint64_t>(chip) +
        slot * static_cast<std::uint64_t>(numChips);
    return falseBase + page * pageBytes + line_in_page * lineBytes;
}

Addr
SharingTraceGen::privAddr(ChipId chip, Rng &rng) const
{
    const auto line =
        hotDraw(rng, privLinesPerChip, hotPrivLines, active.privHotFrac);
    return privBase +
           (static_cast<std::uint64_t>(chip) * privLinesPerChip + line) *
               lineBytes;
}

MemAccess
SharingTraceGen::next(ChipId chip, ClusterId cluster, int warp)
{
    const auto idx = streamIndex(chip, cluster, warp);
    Rng &rng = rngs[idx];
    Recent &recent = recents[idx];
    MemAccess acc;

    if (recent.count > 0 && rng.nextBool(active.rereadFrac)) {
        // Short-term reuse: replay a recently touched line (L1 hit).
        acc.lineAddr = recent.lines[rng.nextBounded(recent.count)];
    } else {
        const double r = rng.nextDouble();
        if (r < effTrueFrac) {
            acc.lineAddr = trueAddr(rng);
        } else if (r < effTrueFrac + effFalseFrac) {
            acc.lineAddr = falseAddr(chip, rng);
        } else {
            acc.lineAddr = privAddr(chip, rng);
        }
        recent.lines[recent.next] = acc.lineAddr;
        recent.next = (recent.next + 1) % recentDepth;
        recent.count = std::min(recent.count + 1, recentDepth);
    }
    acc.lineAddr &= ~static_cast<Addr>(lineBytes - 1);

    acc.type = rng.nextBool(active.writeFrac) ? AccessType::Write
                                              : AccessType::Read;
    if (sectorsPerLine > 1) {
        acc.sector = static_cast<std::uint8_t>(
            rng.nextBounded(sectorsPerLine));
    }
    // +/- 25% jitter around the phase's compute gap.
    const auto base_gap = static_cast<std::uint64_t>(active.computeGap);
    const auto jitter = base_gap / 2;
    acc.gap = static_cast<std::uint16_t>(
        base_gap - jitter / 2 +
        (jitter ? rng.nextBounded(jitter + 1) : 0));
    return acc;
}

SharingClass
SharingTraceGen::classify(Addr line_addr) const
{
    if (line_addr < falseBase)
        return SharingClass::TrueShared;
    if (line_addr < privBase)
        return SharingClass::FalseShared;
    return SharingClass::Private;
}

} // namespace sac
