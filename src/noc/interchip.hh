/**
 * @file
 * Inter-chip interconnect (NVLink-style).
 *
 * Each chip has an aggregate egress bandwidth budget (its share of
 * the ring's links); packets arrive at the destination chip after a
 * fixed hop latency. The paper's ring with 3 links between each pair
 * is abstracted to all-to-all connectivity with a per-chip aggregate
 * budget — the quantity the EAB model's B_inter term describes.
 */

#ifndef SAC_NOC_INTERCHIP_HH
#define SAC_NOC_INTERCHIP_HH

#include <vector>

#include "common/ring.hh"
#include "common/types.hh"
#include "noc/queue.hh"

namespace sac {

/** All-to-all inter-chip network with per-chip egress budgets. */
class InterChipNet
{
  public:
    /**
     * @param num_chips chip count
     * @param egress_bw bytes/cycle each chip may inject
     * @param latency hop latency in cycles
     */
    InterChipNet(int num_chips, double egress_bw, Cycle latency);

    /** Sends @p pkt from @p src to @p dst (src != dst). */
    void send(ChipId src, ChipId dst, Packet pkt, Cycle now);

    /** Refills egress budgets; call once per cycle. */
    void beginCycle();

    /**
     * Moves packets whose egress bandwidth and latency allow into the
     * per-destination arrival queues. Call once per cycle after
     * producers have pushed.
     */
    void tick(Cycle now);

    /** Pops the next packet that has arrived at chip @p dst by @p now. */
    bool receive(ChipId dst, Packet &out, Cycle now);

    /** Every egress queue at rest and every inbox empty. */
    bool atRest() const;

    /** Total bytes that crossed chip boundaries. */
    std::uint64_t bytesTransferred() const { return bytes; }

    /**
     * Cumulative egress bytes per source chip. Telemetry derives the
     * per-epoch peak link utilization (traffic skew) from the deltas.
     */
    const std::vector<std::uint64_t> &bytesBySource() const
    {
        return bytesBySrc;
    }

    /** Packets currently in flight or queued. */
    std::size_t inFlight() const;

    void setEgressBandwidth(double egress_bw);

  private:
    struct Arrival
    {
        Packet pkt;
        Cycle at;
    };

    int chips;
    Cycle latency_;
    std::vector<BwQueue> egress;              // per source chip
    std::vector<Ring<Arrival>> inbox;         // per destination chip
    std::uint64_t bytes = 0;
    std::vector<std::uint64_t> bytesBySrc;    // per source chip
};

} // namespace sac

#endif // SAC_NOC_INTERCHIP_HH
