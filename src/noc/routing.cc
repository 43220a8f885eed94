#include "noc/routing.hh"

#include "cache/cache.hh"
#include "common/log.hh"

namespace sac {

RoutePlan
MemorySideRouting::route(Addr line_addr, ChipId /*src*/, ChipId home,
                         const AddressMap &map) const
{
    RoutePlan plan;
    plan.serveChip = home;
    plan.slice = map.sliceIndex(line_addr);
    plan.allocPartition = partitionLocal;
    return plan;
}

RoutePlan
SmSideRouting::route(Addr line_addr, ChipId src, ChipId home,
                     const AddressMap &map) const
{
    RoutePlan plan;
    plan.serveChip = src;
    plan.slice = map.sliceIndex(line_addr);
    plan.allocPartition = partitionLocal;
    plan.bypassHomeLlc = src != home;
    return plan;
}

RoutePlan
PartitionedRouting::route(Addr line_addr, ChipId src, ChipId home,
                          const AddressMap &map) const
{
    RoutePlan plan;
    plan.serveChip = src;
    plan.slice = map.sliceIndex(line_addr);
    if (src == home) {
        plan.allocPartition = partitionLocal;
    } else {
        plan.allocPartition = partitionRemote;
        plan.homeLookup = true;
        plan.homeAllocPartition = partitionLocal;
    }
    return plan;
}

void
applyRoute(Packet &pkt, const RoutePlan &plan)
{
    SAC_ASSERT(plan.serveChip != invalidChip && plan.slice >= 0,
               "route plan incomplete");
    pkt.serveChip = plan.serveChip;
    pkt.slice = plan.slice;
    pkt.allocPartition = static_cast<std::int8_t>(plan.allocPartition);
    pkt.homeLookup = plan.homeLookup;
    pkt.homeAllocPartition =
        static_cast<std::int8_t>(plan.homeAllocPartition);
    pkt.bypassLlc = false; // set on the hop that actually bypasses
}

} // namespace sac
