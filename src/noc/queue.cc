#include "noc/queue.hh"

#include "common/log.hh"

namespace sac {

BwQueue::BwQueue(double bytes_per_cycle, Cycle latency, std::size_t capacity)
    : bw(bytes_per_cycle), latency_(latency), capacity_(capacity)
{
    SAC_ASSERT(bw > 0.0, "queue bandwidth must be positive");
}

void
BwQueue::push(Packet pkt, Cycle now)
{
    SAC_ASSERT(canPush(), "push into a full BwQueue");
    q.push_back({pkt, now + latency_});
}

void
BwQueue::popHead()
{
    SAC_ASSERT(!q.empty(), "popHead on empty queue");
    budget -= static_cast<double>(q.front().pkt.bytes);
    drained += q.front().pkt.bytes;
    q.pop_front();
}

void
BwQueue::setBandwidth(double bytes_per_cycle)
{
    SAC_ASSERT(bytes_per_cycle > 0.0, "queue bandwidth must be positive");
    bw = bytes_per_cycle;
}

} // namespace sac
