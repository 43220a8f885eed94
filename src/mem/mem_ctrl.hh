/**
 * @file
 * Per-chip memory controller.
 *
 * Owns the chip's DRAM channels and the shared request queue in front
 * of them. Local LLC misses and remote bypass misses share this queue
 * (Section 3.1 of the paper); when a channel is full the requester
 * must wait upstream, which the LLC slice models with its miss queue.
 */

#ifndef SAC_MEM_MEM_CTRL_HH
#define SAC_MEM_MEM_CTRL_HH

#include <vector>

#include "common/config.hh"
#include "common/types.hh"
#include "mem/address_map.hh"
#include "mem/dram.hh"
#include "noc/packet.hh"

namespace sac {

/** Memory controller fronting one chip's DRAM partition. */
class MemCtrl
{
  public:
    MemCtrl(const GpuConfig &cfg, const AddressMap &map, ChipId chip);

    /** True when the channel serving @p line_addr has queue room. */
    bool canAccept(Addr line_addr) const;

    /**
     * Accepts a fetch (read toward a fill) or writeback. The data
     * transfer size is derived here: a sector for sectored fills, a
     * full line otherwise.
     */
    void push(Packet pkt, Cycle now);

    /**
     * Collects completed requests, appending them to @p fills (which
     * is not cleared first; the caller owns and reuses the buffer).
     * Reads come back as Response packets (dataFromMem set);
     * writebacks are absorbed and counted.
     */
    void tick(Cycle now, std::vector<Packet> &fills);

    /**
     * Spreads @p bytes of bulk flush traffic across all channels.
     * @return the cycle at which the last channel finishes.
     */
    Cycle occupyBulk(std::uint64_t bytes, Cycle now);

    std::uint64_t readsServed() const { return reads; }
    std::uint64_t writesServed() const { return writes; }
    std::uint64_t bytesServed() const;
    std::size_t inFlight() const;

  private:
    const AddressMap &map_;
    ChipId chip_;
    unsigned lineBytes;
    unsigned sectorBytes;
    std::vector<DramChannel> channels;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
};

} // namespace sac

#endif // SAC_MEM_MEM_CTRL_HH
