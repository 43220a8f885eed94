/**
 * @file
 * DRAM channel model.
 *
 * Each channel is a bandwidth-limited server with a fixed access
 * latency: a request completes `max(now, channel-free) + bytes/bw`
 * cycles after arrival and its response becomes visible `dramLatency`
 * cycles later. Bank-level parallelism is folded into the channel
 * bandwidth, which is accurate here because the PAE mapping spreads
 * accesses uniformly across banks (the paper verifies this for its
 * setup, Section 3.3).
 */

#ifndef SAC_MEM_DRAM_HH
#define SAC_MEM_DRAM_HH

#include <cstddef>

#include "common/ring.hh"
#include "common/types.hh"
#include "noc/packet.hh"

namespace sac {

/** One DRAM channel: FIFO service at a fixed bytes/cycle rate. */
class DramChannel
{
  public:
    /**
     * @param bytes_per_cycle channel bandwidth
     * @param latency access latency added after service
     * @param queue_depth maximum in-flight requests (backpressure)
     */
    DramChannel(double bytes_per_cycle, Cycle latency,
                std::size_t queue_depth);

    /** True when the channel queue has room. */
    bool canAccept() const { return q.size() < depth; }

    /** Enqueues a request at time @p now. @pre canAccept(). */
    void push(const Packet &pkt, Cycle now);

    /**
     * Pops the next completed request, if any. Writes and writebacks
     * complete silently (pop still returns them so the controller can
     * count them); reads become fill responses upstream.
     */
    bool popReady(Packet &out, Cycle now);

    std::size_t inFlight() const { return q.size(); }
    std::uint64_t bytesServed() const { return served; }
    double bandwidth() const { return bw; }
    void setBandwidth(double bytes_per_cycle);

    /**
     * Occupies the channel for @p bytes of bulk traffic (cache-flush
     * writebacks at reconfiguration/kernel boundaries). Returns the
     * cycle at which the transfer completes.
     */
    Cycle occupyBulk(std::uint64_t bytes, Cycle now);

  private:
    struct Entry
    {
        Packet pkt;
        Cycle readyAt;
    };

    double bw;
    Cycle latency_;
    std::size_t depth;
    /** Cycle until which previously accepted work occupies the pins. */
    double freeAt = 0.0;
    Ring<Entry> q;
    std::uint64_t served = 0;
};

} // namespace sac

#endif // SAC_MEM_DRAM_HH
