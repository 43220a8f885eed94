/**
 * @file
 * Concentrated-crossbar model.
 *
 * The paper's intra-chip NoC is a 38x22 concentrated hierarchical
 * crossbar. We model its bandwidth behaviour with one
 * bandwidth-limited queue per output port (LLC-slice ports on the
 * request network, SM-cluster ports on the response network); output
 * ports are where memory-side slice camping creates the LSU
 * non-uniformity the EAB model reasons about. Input-side concentration
 * is implicit in the clusters' bounded issue rate.
 *
 * Request and response networks are separate instances, matching the
 * paper's "we model separate request and response networks".
 */

#ifndef SAC_NOC_XBAR_HH
#define SAC_NOC_XBAR_HH

#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "noc/queue.hh"

namespace sac {

/** One direction of the intra-chip crossbar: N output-port queues. */
class Xbar
{
  public:
    /**
     * @param ports number of output ports
     * @param port_bw bytes/cycle per port
     * @param latency traversal latency
     */
    Xbar(int ports, double port_bw, Cycle latency);

    // The per-cycle forwarding wrappers are defined inline: the loop
    // hits them for every cluster and slice every cycle, and each is
    // a bounds-checked delegation to one BwQueue.

    /** True when port @p port can accept a packet. */
    bool
    canPush(int port) const
    {
        return queues[static_cast<std::size_t>(port)].canPush();
    }

    /** Routes @p pkt to output @p port at time @p now. */
    void
    push(int port, Packet pkt, Cycle now)
    {
        SAC_ASSERT(port >= 0 && port < ports(), "bad crossbar port ",
                   port);
        queues[static_cast<std::size_t>(port)].push(pkt, now);
    }

    /** Refills all port budgets; call once per cycle. */
    void
    beginCycle()
    {
        for (auto &q : queues)
            q.beginCycle();
    }

    /** Drains one ready packet from @p port if possible. */
    bool
    tryPop(int port, Packet &out, Cycle now)
    {
        return queues[static_cast<std::size_t>(port)].tryPop(out, now);
    }

    /** Every port at rest (BwQueue::atRest). */
    bool atRest() const;

    int ports() const { return static_cast<int>(queues.size()); }
    std::size_t queued(int port) const;
    std::uint64_t bytesDrained() const;

    /** Adjusts every port's bandwidth (sensitivity sweeps). */
    void setPortBandwidth(double port_bw);

  private:
    std::vector<BwQueue> queues;
};

} // namespace sac

#endif // SAC_NOC_XBAR_HH
