#include "sim/chip.hh"

#include <algorithm>

#include "common/log.hh"

namespace sac {

namespace {

/**
 * Builds "c<chip>.<unit><index>" by appending into one string.
 * Chained operator+ over temporaries trips a GCC 12 -Wrestrict false
 * positive under -O2 (inlined self-copy check); appends do not.
 */
std::string
unitName(ChipId chip, const char *unit, int index)
{
    std::string name = "c";
    name += std::to_string(chip);
    name += '.';
    name += unit;
    name += std::to_string(index);
    return name;
}

} // namespace

Chip::Chip(const GpuConfig &cfg, const AddressMap &map, ChipId id,
           TraceSource &trace, ChipHooks &hooks)
    : cfg_(cfg), map_(map), id_(id), hooks(hooks),
      respXbar(cfg.clustersPerChip, cfg.xbarPortBw, cfg.xbarLatency),
      mem(cfg, map, id), memUnit_(*this)
{
    clusters.reserve(static_cast<std::size_t>(cfg.clustersPerChip));
    for (ClusterId c = 0; c < cfg.clustersPerChip; ++c)
        clusters.push_back(std::make_unique<SmCluster>(cfg, id, c, trace));
    slices.reserve(static_cast<std::size_t>(cfg.slicesPerChip));
    for (int s = 0; s < cfg.slicesPerChip; ++s)
        slices.push_back(std::make_unique<LlcSlice>(cfg, id, s));
    std::string mem_name = "c";
    mem_name += std::to_string(id_);
    mem_name += ".mem";
    memUnit_.setName(std::move(mem_name));
}

void
Chip::registerClusterComponents(sim::Scheduler &sched, ClusterEnv &env)
{
    sched_ = &sched;
    clusterIds_.reserve(clusters.size());
    for (auto &cluster : clusters) {
        cluster->bind(env, respXbar.port(cluster->id()),
                      unitName(id_, "cluster", cluster->id()));
        clusterIds_.push_back(sched.add(*cluster));
    }
}

void
Chip::registerSliceComponents(sim::Scheduler &sched)
{
    sliceIds_.reserve(slices.size());
    for (auto &slice : slices) {
        slice->bind(*this, mem, unitName(id_, "slice", slice->index()));
        sliceIds_.push_back(sched.add(*slice));
    }
}

void
Chip::registerMemoryComponent(sim::Scheduler &sched)
{
    memId_ = sched.add(memUnit_);
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
            if (sched_)
                sched_->wake(memId_, mem.nextEventCycle(now));
            return;
        }
        if (pkt.atHome || pkt.bypassLlc ||
            pkt.kind == PacketKind::Writeback) {
            // Home-level / bypass virtual channel (deadlock freedom).
            auto &slice = *slices[static_cast<std::size_t>(pkt.slice)];
            slice.vcQueue().push(pkt, now);
            if (sched_) {
                sched_->wake(sliceIds_[static_cast<std::size_t>(pkt.slice)],
                             slice.vcQueue().nextEventCycle(now));
            }
        } else {
            auto &slice = *slices[static_cast<std::size_t>(pkt.slice)];
            slice.inQueue().push(pkt, now);
            if (sched_) {
                sched_->wake(sliceIds_[static_cast<std::size_t>(pkt.slice)],
                             slice.inQueue().nextEventCycle(now));
            }
        }
        return;
      case PacketKind::Response:
        if (!pkt.serveFilled && pkt.serveChip == id_) {
            SAC_ASSERT(pkt.slice >= 0, "fill without a slice");
            slices[static_cast<std::size_t>(pkt.slice)]->pushFill(pkt);
            if (sched_) {
                sched_->wake(sliceIds_[static_cast<std::size_t>(pkt.slice)],
                             now);
            }
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
        dispatchFill(fill, now);
    if (sched_ && !memFills_.empty()) {
        // Completions freed memory-queue slots: slices parked on a
        // full controller queue can retry their missQ heads. The
        // scheduler clamps these to the next cycle (slice phase
        // precedes memory phase), matching the reference retry cycle.
        for (std::size_t s = 0; s < slices.size(); ++s) {
            if (slices[s]->missQueued() > 0)
                sched_->wake(sliceIds_[s], now);
        }
    }
}

void
Chip::dispatchFill(Packet pkt, Cycle now)
{
    // A memory fill completes either the home level of a partitioned
    // lookup (fill here) or the serve level (here or on another chip).
    if (pkt.atHome && !pkt.homeFilled) {
        SAC_ASSERT(pkt.homeChip == id_, "home fill on wrong chip");
        slices[static_cast<std::size_t>(pkt.slice)]->pushFill(pkt);
        if (sched_)
            sched_->wake(sliceIds_[static_cast<std::size_t>(pkt.slice)], now);
        return;
    }
    if (pkt.serveChip == id_) {
        slices[static_cast<std::size_t>(pkt.slice)]->pushFill(pkt);
        if (sched_)
            sched_->wake(sliceIds_[static_cast<std::size_t>(pkt.slice)], now);
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
    const Cycle now = hooks.now();
    mem.push(pkt, now);
    if (sched_)
        sched_->wake(memId_, mem.nextEventCycle(now));
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
    const Cycle now = hooks.now();
    const ClusterId target = pkt.srcCluster;
    respXbar.push(target, pkt, now);
    if (sched_) {
        sched_->wake(clusterIds_[static_cast<std::size_t>(target)],
                     respXbar.port(target).nextEventCycle(now));
    }
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
    auto &slice = *slices[static_cast<std::size_t>(pkt.slice)];
    slice.inQueue().push(pkt, now);
    if (sched_) {
        sched_->wake(sliceIds_[static_cast<std::size_t>(pkt.slice)],
                     slice.inQueue().nextEventCycle(now));
    }
}

void
Chip::beginKernel(std::uint64_t first, std::uint64_t count,
                  std::uint64_t accesses_per_warp, Cycle now)
{
    for (std::uint64_t c = first; c < first + count; ++c) {
        clusters[c]->beginKernel(accesses_per_warp, now);
        if (sched_)
            sched_->wake(clusterIds_[c], now);
    }
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

Cycle
Chip::memoryEventCycle(Cycle now) const
{
    const Cycle mem_next = mem.nextEventCycle(now);
    if (!directBypassQ.empty() &&
        mem.canAccept(directBypassQ.front().lineAddr)) {
        return now;
    }
    return mem_next;
}

void
Chip::wakeMemory(Cycle now)
{
    if (sched_)
        sched_->wake(memId_, memoryEventCycle(now));
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

} // namespace sac
