#include "cache/mshr.hh"

#include "common/log.hh"

namespace sac {

MshrFile::MshrFile(std::size_t entries) : cap(entries), table(entries)
{
    SAC_ASSERT(cap > 0, "MSHR file needs at least one entry");
}

std::uint32_t
MshrFile::newNode(const Packet &pkt)
{
    std::uint32_t n = free_;
    if (n == noNode) {
        SAC_ASSERT(nodes_.size() < noNode, "MSHR target pool overflow");
        n = static_cast<std::uint32_t>(nodes_.size());
        nodes_.push_back({pkt, noNode});
        return n;
    }
    free_ = nodes_[n].next;
    nodes_[n] = {pkt, noNode};
    return n;
}

MshrFile::Outcome
MshrFile::allocate(const Packet &pkt)
{
    const std::uint64_t k = key(pkt.lineAddr, pkt.sector);
    if (Targets *targets = table.find(k)) {
        const std::uint32_t n = newNode(pkt);
        nodes_[targets->tail].next = n;
        targets->tail = n;
        return Outcome::Merged;
    }
    if (table.size() >= cap)
        return Outcome::Full;
    auto [targets, inserted] = table.emplace(k);
    SAC_ASSERT(inserted, "racing MSHR insert");
    const std::uint32_t n = newNode(pkt);
    *targets = {n, n};
    return Outcome::Primary;
}

bool
MshrFile::has(Addr line_addr, unsigned sector) const
{
    return table.contains(key(line_addr, sector));
}

} // namespace sac
