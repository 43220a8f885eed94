/**
 * @file
 * The NoC routing rules (the heart of SAC's reconfiguration, Fig. 6
 * of the paper); llc/organization.hh picks one per miss.
 *
 * A RoutePlan tells the system, for one L1 miss, which chip's LLC
 * slice serves the request, which way-partition class a fill may
 * allocate into, and what happens on a miss at that slice: go to the
 * local memory partition, bypass the remote LLC straight to the
 * remote memory controller (SM-side remote misses, Fig. 6 step 4),
 * or perform a second-level lookup in the home chip's slice
 * (Static/Dynamic partitioned organizations).
 */

#ifndef SAC_NOC_ROUTING_HH
#define SAC_NOC_ROUTING_HH

#include "common/types.hh"
#include "mem/address_map.hh"
#include "noc/packet.hh"

namespace sac {

/** Routing decision for one request. */
struct RoutePlan
{
    /** Chip whose LLC slice performs the first-level lookup. */
    ChipId serveChip = invalidChip;
    /** Slice index within serveChip. */
    int slice = -1;
    /** Partition class a fill allocates into at the serve slice. */
    int allocPartition = 0;
    /** On a serve-slice miss for remote data: look up the home slice. */
    bool homeLookup = false;
    /** Partition class used when allocating at the home slice. */
    int homeAllocPartition = 0;
    /**
     * On a serve-slice miss for remote data: send the fetch straight
     * to the home chip's memory controller, bypassing its LLC.
     */
    bool bypassHomeLlc = false;
};

/** Memory-side: the home chip's slice serves everyone (Fig. 4). */
RoutePlan memorySideRoute(Addr line_addr, ChipId home,
                          const AddressMap &map);

/** SM-side: the requester's local slice serves; remote misses bypass
 *  the home LLC (Fig. 5, Fig. 6 SR path). */
RoutePlan smSideRoute(Addr line_addr, ChipId src, ChipId home,
                      const AddressMap &map);

/**
 * Partitioned (Static L1.5 / Dynamic): local data is memory-side in
 * the local partition; remote data is cached requester-side in the
 * remote partition, with a second-level memory-side lookup at home.
 */
RoutePlan partitionedRoute(Addr line_addr, ChipId src, ChipId home,
                           const AddressMap &map);

/** Applies a RoutePlan's fields onto a request packet. */
void applyRoute(Packet &pkt, const RoutePlan &plan);

} // namespace sac

#endif // SAC_NOC_ROUTING_HH
