/**
 * @file
 * The unit of transfer in the on-chip and inter-chip networks.
 *
 * A Packet is created when an SM cluster misses its L1 and is
 * destroyed when the response wakes the warp (reads) or when the
 * write ack returns (writes). The routing policy of the active LLC
 * organization fills in the serve/bypass fields (see Fig. 6 of the
 * paper: SL/ML/SR/MR miss paths).
 */

#ifndef SAC_NOC_PACKET_HH
#define SAC_NOC_PACKET_HH

#include <cstdint>

#include "common/types.hh"

namespace sac {

/** Where a response was ultimately served from (Fig. 10 breakdown). */
enum class ResponseOrigin : std::uint8_t {
    None,
    LocalLlc,   //!< LLC slice in the requesting chip
    RemoteLlc,  //!< LLC slice in another chip
    LocalMem,   //!< DRAM partition attached to the requesting chip
    RemoteMem,  //!< DRAM partition of another chip
};

/** Network message kinds. */
enum class PacketKind : std::uint8_t {
    Request,     //!< L1-miss read or write travelling toward data
    Response,    //!< data fill / write ack travelling back to the SM
    Writeback,   //!< dirty LLC line being written to a memory partition
    Invalidate,  //!< hardware-coherence invalidation to a sharer chip
};

/**
 * A memory transaction in flight. Packets are small PODs passed by
 * value through the bandwidth-limited queues, MSHR target lists and
 * inter-chip inboxes, so every byte here is copied several times per
 * simulated access. Fields are grouped by size to pack into 48 bytes;
 * GpuConfig::validate() bounds the topology so the narrow ids fit
 * (chips in 8 bits; clusters, warps and slices in 16).
 */
struct Packet
{
    /** Line-aligned physical address. */
    Addr lineAddr = 0;
    /** Cycle the originating access was issued (latency stats). */
    Cycle issued = 0;

    /** Requesting SM cluster. */
    std::int16_t srcCluster = -1;
    std::int16_t warp = -1;
    /** Slice index within serveChip. */
    std::int16_t slice = -1;
    /** Kernel stream of the requesting cluster (0 in a plain run). */
    std::int16_t stream = 0;
    /** NoC bytes this packet occupies on a link. */
    std::uint16_t bytes = 32;

    PacketKind kind = PacketKind::Request;
    AccessType type = AccessType::Read;
    /** Filled in on the response path. */
    ResponseOrigin origin = ResponseOrigin::None;
    /** Sector index within the line (sectored-cache design point). */
    std::uint8_t sector = 0;

    /** Requesting chip. */
    std::int8_t srcChip = invalidChip;
    /** Chip owning the page (first-touch home). */
    std::int8_t homeChip = invalidChip;
    /** Chip whose LLC slice serves the request (routing decision). */
    std::int8_t serveChip = invalidChip;
    /** Next chip this packet is travelling to on the inter-chip net. */
    std::int8_t nocDst = invalidChip;
    /** Chip that produced the response data (slice or DRAM). */
    std::int8_t dataChip = invalidChip;

    /** Way-partition class the serve slice must allocate into. */
    std::int8_t allocPartition = 0;
    std::int8_t homeAllocPartition = 0;

    /**
     * True when the packet must bypass the LLC of the chip it is
     * heading to (SM-side remote miss arriving at the home chip,
     * Fig. 6 step 4).
     */
    bool bypassLlc = false;
    /** Second-level lookup at the home slice on a src-slice miss. */
    bool homeLookup = false;
    /**
     * True while the packet is executing the home-side leg of a
     * two-level (Static/Dynamic) lookup.
     */
    bool atHome = false;
    /** The home-side fill/lookup has completed. */
    bool homeFilled = false;
    /** The serve-side (requester-side) fill has completed. */
    bool serveFilled = false;
    /** Response payload source: true when DRAM produced the data. */
    bool dataFromMem = false;

    /** True iff this request came from a chip other than @p chip. */
    bool remoteTo(ChipId chip) const { return srcChip != chip; }
};

static_assert(sizeof(Packet) <= 48, "Packet outgrew its 48-byte budget");

} // namespace sac

#endif // SAC_NOC_PACKET_HH
