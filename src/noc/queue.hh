/**
 * @file
 * Bandwidth- and latency-modelled FIFO, the building block of every
 * network structure in the simulator (crossbar output ports,
 * inter-chip links, memory-controller queues).
 */

#ifndef SAC_NOC_QUEUE_HH
#define SAC_NOC_QUEUE_HH

#include <cstddef>

#include "common/ring.hh"
#include "common/types.hh"
#include "noc/packet.hh"

namespace sac {

/**
 * A FIFO through which packets drain at a configurable bytes/cycle
 * rate after a fixed traversal latency.
 *
 * push() timestamps the packet; tryPop() succeeds once the latency
 * has elapsed *and* enough bandwidth budget has accumulated this
 * cycle. Unused budget up to one cycle's worth carries over so that
 * fractional bandwidths (e.g., 56 B/cy DRAM channels) average out
 * exactly.
 */
class BwQueue
{
  public:
    /**
     * @param bytes_per_cycle drain rate (> 0)
     * @param latency fixed traversal delay in cycles
     * @param capacity maximum queued packets (0 = unbounded)
     */
    BwQueue(double bytes_per_cycle, Cycle latency, std::size_t capacity = 0);

    /** True when another packet can be accepted. */
    bool canPush() const
    {
        return capacity_ == 0 || q.size() < capacity_;
    }

    /** Enqueues @p pkt at time @p now. @pre canPush(). */
    void push(Packet pkt, Cycle now);

    // The per-cycle methods below are defined inline: every queue in
    // the machine goes through them every simulated cycle.

    /** Refills the cycle's bandwidth budget. Call once per cycle. */
    void
    beginCycle()
    {
        // Carry at most one cycle's worth of unused credit so
        // fractional rates average out without allowing unbounded
        // bursts; debt from oversized packets is repaid across cycles.
        budget = budget + bw < 2.0 * bw ? budget + bw : 2.0 * bw;
    }

    /**
     * Pops the head packet if it is ready (latency elapsed, budget
     * available). Returns false when nothing can drain this cycle.
     */
    bool
    tryPop(Packet &out, Cycle now)
    {
        if (q.empty())
            return false;
        const Entry &head = q.front();
        if (head.readyAt > now)
            return false;
        if (budget <= 0.0)
            return false;
        budget -= static_cast<double>(head.pkt.bytes);
        drained += head.pkt.bytes;
        out = head.pkt;
        q.pop_front();
        return true;
    }

    /** Head packet without popping; null when empty. */
    const Packet *peek() const { return q.empty() ? nullptr : &q.front().pkt; }

    /**
     * Head packet if it could drain this cycle (latency elapsed and
     * budget available), else null. Pair with popHead() so consumers
     * can inspect a packet and refuse it without losing ordering.
     *
     * Token bucket with debt: a packet drains once any credit is
     * available and drives the balance negative, so packets larger
     * than the per-cycle budget serialize over several cycles
     * instead of wedging (essential for slow inter-chip links).
     */
    const Packet *
    peekReady(Cycle now) const
    {
        if (q.empty())
            return nullptr;
        const Entry &head = q.front();
        if (head.readyAt > now || budget <= 0.0)
            return nullptr;
        return &head.pkt;
    }

    /** Consumes the head previously returned by peekReady(). */
    void popHead();

    /**
     * True when a cycle of this queue is a no-op: nothing queued and
     * the budget at its 2 * bw cap, where beginCycle() leaves it
     * unchanged. A queue still repaying debt is not at rest until the
     * refills bring it back to the cap.
     */
    bool atRest() const { return q.empty() && budget == 2.0 * bw; }

    std::size_t size() const { return q.size(); }
    bool empty() const { return q.empty(); }

    double bandwidth() const { return bw; }
    /** Changes the drain rate (used by sensitivity sweeps). */
    void setBandwidth(double bytes_per_cycle);

    /** Total bytes ever drained (utilization stats). */
    std::uint64_t bytesDrained() const { return drained; }

  private:
    struct Entry
    {
        Packet pkt;
        Cycle readyAt;
    };

    double bw;
    Cycle latency_;
    std::size_t capacity_;
    double budget = 0.0;
    Ring<Entry> q;
    std::uint64_t drained = 0;
};

} // namespace sac

#endif // SAC_NOC_QUEUE_HH
