#include "noc/xbar.hh"

#include <algorithm>

#include "common/log.hh"

namespace sac {

Xbar::Xbar(int ports, double port_bw, Cycle latency)
{
    SAC_ASSERT(ports > 0, "crossbar needs at least one port");
    queues.reserve(static_cast<std::size_t>(ports));
    for (int p = 0; p < ports; ++p)
        queues.emplace_back(port_bw, latency);
}

bool
Xbar::atRest() const
{
    return std::all_of(queues.begin(), queues.end(),
                       [](const BwQueue &q) { return q.atRest(); });
}

std::size_t
Xbar::queued(int port) const
{
    return queues[static_cast<std::size_t>(port)].size();
}

std::uint64_t
Xbar::bytesDrained() const
{
    std::uint64_t total = 0;
    for (const auto &q : queues)
        total += q.bytesDrained();
    return total;
}

void
Xbar::setPortBandwidth(double port_bw)
{
    for (auto &q : queues)
        q.setBandwidth(port_bw);
}

} // namespace sac
