#include "mem/mem_ctrl.hh"

#include <algorithm>

#include "common/log.hh"

namespace sac {

MemCtrl::MemCtrl(const GpuConfig &cfg, const AddressMap &map, ChipId chip)
    : map_(map),
      chip_(chip),
      lineBytes(cfg.lineBytes),
      sectorBytes(cfg.lineBytes / cfg.sectorsPerLine)
{
    channels.reserve(static_cast<std::size_t>(cfg.channelsPerChip));
    for (int c = 0; c < cfg.channelsPerChip; ++c) {
        channels.emplace_back(cfg.dramChannelBw, cfg.dramLatency,
                              static_cast<std::size_t>(cfg.memQueueDepth));
    }
}

bool
MemCtrl::canAccept(Addr line_addr) const
{
    return channels[static_cast<std::size_t>(map_.channelIndex(line_addr))]
        .canAccept();
}

void
MemCtrl::push(Packet pkt, Cycle now)
{
    SAC_ASSERT(pkt.homeChip == chip_, "request at wrong memory partition");
    // The DRAM transfer size replaces the NoC request size.
    pkt.bytes = pkt.kind == PacketKind::Writeback ? lineBytes : sectorBytes;
    auto &ch =
        channels[static_cast<std::size_t>(map_.channelIndex(pkt.lineAddr))];
    ch.push(pkt, now);
}

void
MemCtrl::tick(Cycle now, std::vector<Packet> &fills)
{
    Packet pkt;
    for (auto &ch : channels) {
        while (ch.popReady(pkt, now)) {
            if (pkt.kind == PacketKind::Writeback) {
                ++writes;
                continue;
            }
            ++reads;
            pkt.kind = PacketKind::Response;
            pkt.dataFromMem = true;
            pkt.dataChip = chip_;
            pkt.bytes = sectorBytes;
            fills.push_back(pkt);
        }
    }
}

Cycle
MemCtrl::occupyBulk(std::uint64_t bytes, Cycle now)
{
    const auto share = bytes / channels.size();
    Cycle last = now;
    for (auto &ch : channels)
        last = std::max(last, ch.occupyBulk(share, now));
    return last;
}

std::uint64_t
MemCtrl::bytesServed() const
{
    std::uint64_t total = 0;
    for (const auto &ch : channels)
        total += ch.bytesServed();
    return total;
}

std::size_t
MemCtrl::inFlight() const
{
    std::size_t n = 0;
    for (const auto &ch : channels)
        n += ch.inFlight();
    return n;
}

void
MemCtrl::setChannelBandwidth(double bytes_per_cycle)
{
    for (auto &ch : channels)
        ch.setBandwidth(bytes_per_cycle);
}

} // namespace sac
