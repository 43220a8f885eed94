#include "noc/interchip.hh"

#include <algorithm>

#include "common/log.hh"

namespace sac {

InterChipNet::InterChipNet(int num_chips, double egress_bw, Cycle latency)
    : chips(num_chips), latency_(latency)
{
    SAC_ASSERT(chips > 0, "need at least one chip");
    egress.reserve(static_cast<std::size_t>(chips));
    for (int c = 0; c < chips; ++c)
        egress.emplace_back(egress_bw, 0);
    inbox.resize(static_cast<std::size_t>(chips));
    bytesBySrc.resize(static_cast<std::size_t>(chips), 0);
}

void
InterChipNet::send(ChipId src, ChipId dst, Packet pkt, Cycle now)
{
    SAC_ASSERT(src >= 0 && src < chips && dst >= 0 && dst < chips,
               "bad inter-chip endpoints ", src, " -> ", dst);
    SAC_ASSERT(src != dst, "inter-chip send to self");
    pkt.nocDst = dst;
    egress[static_cast<std::size_t>(src)].push(pkt, now);
}

void
InterChipNet::beginCycle()
{
    for (auto &q : egress)
        q.beginCycle();
}

void
InterChipNet::tick(Cycle now)
{
    Packet pkt;
    for (std::size_t src = 0; src < egress.size(); ++src) {
        auto &q = egress[src];
        while (q.tryPop(pkt, now)) {
            bytes += pkt.bytes;
            bytesBySrc[src] += pkt.bytes;
            inbox[static_cast<std::size_t>(pkt.nocDst)].push_back(
                {pkt, now + latency_});
        }
    }
}

bool
InterChipNet::receive(ChipId dst, Packet &out, Cycle now)
{
    auto &q = inbox[static_cast<std::size_t>(dst)];
    if (q.empty() || q.front().at > now)
        return false;
    out = q.front().pkt;
    out.nocDst = invalidChip;
    q.pop_front();
    return true;
}

bool
InterChipNet::atRest() const
{
    return std::all_of(egress.begin(), egress.end(),
                       [](const BwQueue &q) { return q.atRest(); }) &&
           std::all_of(inbox.begin(), inbox.end(),
                       [](const Ring<Arrival> &q) { return q.empty(); });
}

std::size_t
InterChipNet::inFlight() const
{
    std::size_t n = 0;
    for (const auto &q : egress)
        n += q.size();
    for (const auto &q : inbox)
        n += q.size();
    return n;
}

} // namespace sac
