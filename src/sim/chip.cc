#include "sim/chip.hh"

#include <algorithm>

#include "common/log.hh"

namespace sac {

Chip::Chip(const GpuConfig &cfg, const AddressMap &map, ChipId id,
           TraceSource &trace, ChipHooks &hooks)
    : cfg_(cfg), map_(map), id_(id), hooks(hooks),
      respXbar(cfg.clustersPerChip, cfg.xbarPortBw, cfg.xbarLatency),
      mem(cfg, map, id)
{
    clusters.reserve(static_cast<std::size_t>(cfg.clustersPerChip));
    for (ClusterId c = 0; c < cfg.clustersPerChip; ++c)
        clusters.push_back(std::make_unique<SmCluster>(cfg, id, c, trace));
    slices.reserve(static_cast<std::size_t>(cfg.slicesPerChip));
    for (int s = 0; s < cfg.slicesPerChip; ++s)
        slices.push_back(std::make_unique<LlcSlice>(cfg, id, s));
}

void
Chip::tickClusters(Cycle now, ClusterEnv &env)
{
    respXbar.beginCycle();
    Packet resp;
    for (auto &cluster : clusters) {
        while (respXbar.tryPop(cluster->id(), resp, now))
            cluster->deliver(resp, now);
        cluster->tick(now, env);
    }
}

void
Chip::acceptIcnArrival(Packet pkt, Cycle now)
{
    switch (pkt.kind) {
      case PacketKind::Invalidate:
        invalidateLine(pkt.lineAddr, map_.sliceIndex(pkt.lineAddr));
        return;
      case PacketKind::Request:
      case PacketKind::Writeback:
        if (pkt.slice < 0)
            pkt.slice = map_.sliceIndex(pkt.lineAddr);
        SAC_ASSERT(pkt.bypassLlc || pkt.atHome || pkt.serveChip == id_,
                   "request arrived at a chip that does not serve it");
        if (pkt.bypassLlc && directBypass) {
            // Two-NoC SM-side: remote traffic has its own network to
            // the memory controllers and does not touch the shared
            // crossbar ports.
            if (mem.canAccept(pkt.lineAddr)) {
                mem.push(pkt, now);
            } else {
                directBypassQ.push_back(pkt);
            }
            return;
        }
        if (pkt.atHome || pkt.bypassLlc ||
            pkt.kind == PacketKind::Writeback) {
            // Home-level / bypass virtual channel (deadlock freedom).
            slices[static_cast<std::size_t>(pkt.slice)]->vcQueue().push(
                pkt, now);
        } else {
            slices[static_cast<std::size_t>(pkt.slice)]->inQueue().push(
                pkt, now);
        }
        return;
      case PacketKind::Response:
        if (!pkt.serveFilled && pkt.serveChip == id_) {
            SAC_ASSERT(pkt.slice >= 0, "fill without a slice");
            slices[static_cast<std::size_t>(pkt.slice)]->pushFill(pkt);
            return;
        }
        SAC_ASSERT(pkt.srcChip == id_, "response arrived at wrong chip");
        respondCluster(pkt);
        return;
    }
    panic("unhandled inter-chip packet kind");
}

void
Chip::tickSlices(Cycle now)
{
    for (auto &slice : slices)
        slice->tick(now, *this);
}

void
Chip::tickMemory(Cycle now)
{
    // Retry two-NoC bypass traffic that found the queue full.
    while (!directBypassQ.empty() &&
           mem.canAccept(directBypassQ.front().lineAddr)) {
        mem.push(directBypassQ.front(), now);
        directBypassQ.pop_front();
    }
    memFills_.clear();
    mem.tick(now, memFills_);
    for (const auto &fill : memFills_)
        dispatchFill(fill);
}

void
Chip::dispatchFill(const Packet &pkt)
{
    // A memory fill completes either the home level of a partitioned
    // lookup (fill here) or the serve level (here or on another chip).
    if (pkt.atHome && !pkt.homeFilled) {
        SAC_ASSERT(pkt.homeChip == id_, "home fill on wrong chip");
        slices[static_cast<std::size_t>(pkt.slice)]->pushFill(pkt);
        return;
    }
    if (pkt.serveChip == id_) {
        slices[static_cast<std::size_t>(pkt.slice)]->pushFill(pkt);
    } else {
        // SM-side remote miss: the fill crosses back to the
        // requester's chip and fills its slice there.
        hooks.icnSend(id_, pkt.serveChip, pkt);
    }
}

bool
Chip::memCanAccept(Addr line_addr) const
{
    return mem.canAccept(line_addr);
}

void
Chip::memPush(const Packet &pkt)
{
    mem.push(pkt, hooks.now());
}

void
Chip::sendToChip(ChipId dst, Packet pkt)
{
    hooks.icnSend(id_, dst, std::move(pkt));
}

void
Chip::respondCluster(Packet pkt)
{
    SAC_ASSERT(pkt.srcChip == id_, "response for another chip's cluster");
    if (pkt.type == AccessType::Read)
        hooks.countResponse(pkt);
    respXbar.push(pkt.srcCluster, pkt, hooks.now());
}

void
Chip::directoryFill(Addr line_addr, ChipId chip)
{
    hooks.replicaAdded(line_addr, chip);
}

void
Chip::directoryEvict(Addr line_addr, ChipId chip)
{
    hooks.replicaRemoved(line_addr, chip);
}

void
Chip::coherentWrite(const Packet &pkt, ChipId writer)
{
    hooks.handleWrite(pkt, writer);
}

void
Chip::pushLocalRequest(const Packet &pkt, Cycle now)
{
    SAC_ASSERT(pkt.serveChip == id_, "local push for a remote serve chip");
    slices[static_cast<std::size_t>(pkt.slice)]->inQueue().push(pkt, now);
}

void
Chip::beginKernel(std::uint64_t first, std::uint64_t count,
                  std::uint64_t accesses_per_warp, Cycle now)
{
    for (std::uint64_t c = first; c < first + count; ++c)
        clusters[c]->beginKernel(accesses_per_warp, now);
}

void
Chip::flushL1s(std::uint64_t first, std::uint64_t count)
{
    for (std::uint64_t c = first; c < first + count; ++c)
        clusters[c]->flushL1();
}

void
Chip::invalidateLine(Addr line_addr, int slice)
{
    slices[static_cast<std::size_t>(slice)]->cache().invalidate(line_addr);
    for (auto &cluster : clusters)
        cluster->invalidateL1Line(line_addr);
}

void
Chip::pauseClusters(std::uint64_t first, std::uint64_t count, Cycle until)
{
    for (std::uint64_t c = first; c < first + count; ++c)
        clusters[c]->pauseUntil(until);
}

void
Chip::setClusterStream(std::uint64_t first, std::uint64_t count, int stream)
{
    for (std::uint64_t c = first; c < first + count; ++c)
        clusters[c]->setStream(stream);
}

void
Chip::setWaySplit(int local_ways)
{
    for (auto &slice : slices)
        slice->cache().setWaySplit(local_ways);
}

bool
Chip::clustersDone(std::uint64_t first, std::uint64_t count) const
{
    for (std::uint64_t c = first; c < first + count; ++c) {
        if (!clusters[c]->done())
            return false;
    }
    return true;
}

std::size_t
Chip::outstanding() const
{
    std::size_t n = directBypassQ.size() + mem.inFlight();
    for (int c = 0; c < static_cast<int>(clusters.size()); ++c)
        n += respXbar.queued(c);
    for (const auto &slice : slices)
        n += slice->outstanding();
    for (const auto &cluster : clusters)
        n += cluster->outstanding();
    return n;
}

bool
Chip::atRest() const
{
    const auto at_rest = [](const auto &unit) { return unit->atRest(); };
    return directBypassQ.empty() && mem.inFlight() == 0 &&
           respXbar.atRest() &&
           std::all_of(clusters.begin(), clusters.end(), at_rest) &&
           std::all_of(slices.begin(), slices.end(), at_rest);
}

} // namespace sac
