/**
 * @file
 * Miss Status Holding Registers.
 *
 * Coalesces concurrent misses to the same line so one fill satisfies
 * every waiting requester — essential for truly shared hot lines,
 * where dozens of clusters miss on the same address in the same
 * window.
 *
 * The file is allocation-free in steady state: entries live in a flat
 * open-addressing table (ProbeMap) that holds only the ends of each
 * entry's target list, and the targets themselves are nodes of one
 * pool whose freed nodes go on a free list, so the pool grows only to
 * the peak number of waiting targets. complete() hands each target to
 * the caller in place, in arrival order, instead of copying it out.
 */

#ifndef SAC_CACHE_MSHR_HH
#define SAC_CACHE_MSHR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/probe_map.hh"
#include "common/types.hh"
#include "noc/packet.hh"

namespace sac {

/** MSHR file keyed by (line address, sector). */
class MshrFile
{
  public:
    /** @param entries maximum distinct outstanding line-sector misses. */
    explicit MshrFile(std::size_t entries);

    /**
     * Result of allocate(): whether this miss is the first for its
     * line (must be sent downstream) or merged into an existing entry.
     */
    enum class Outcome { Primary, Merged, Full };

    /** Registers a missing request; the packet is retained as a target. */
    Outcome allocate(const Packet &pkt);

    /** True when a miss for this line-sector is already outstanding. */
    bool has(Addr line_addr, unsigned sector) const;

    /**
     * Completes the miss: frees the entry, then calls @p fn(const
     * Packet &) on each coalesced target in arrival order and returns
     * how many there were (0 when no entry exists). @p fn must not
     * call back into this file; the targets live in its pool.
     */
    template <typename Fn>
    std::size_t
    complete(Addr line_addr, unsigned sector, Fn &&fn)
    {
        const std::uint64_t k = key(line_addr, sector);
        const Targets *targets = table.find(k);
        if (!targets)
            return 0;
        std::uint32_t n = targets->head;
        table.erase(k);
        std::size_t count = 0;
        while (n != noNode) {
            Node &node = nodes_[n];
            fn(static_cast<const Packet &>(node.pkt));
            const std::uint32_t next = node.next;
            node.next = free_;
            free_ = n;
            n = next;
            ++count;
        }
        return count;
    }

    std::size_t inUse() const { return table.size(); }
    std::size_t capacity() const { return cap; }
    bool full() const { return table.size() >= cap; }

  private:
    static std::uint64_t key(Addr line_addr, unsigned sector)
    {
        return line_addr ^ (static_cast<std::uint64_t>(sector) << 58);
    }

    /** End of a target list or of the free list. */
    static constexpr std::uint32_t noNode = ~std::uint32_t{0};

    /** One waiting target: a pooled list node. */
    struct Node
    {
        Packet pkt;
        std::uint32_t next;
    };

    /** An entry's target list, oldest first. */
    struct Targets
    {
        std::uint32_t head;
        std::uint32_t tail;
    };

    /** A pool node holding @p pkt, from the free list when it has one. */
    std::uint32_t newNode(const Packet &pkt);

    std::size_t cap;
    ProbeMap<Targets> table;
    std::vector<Node> nodes_;
    /** Head of the free-node list. */
    std::uint32_t free_ = noNode;
};

} // namespace sac

#endif // SAC_CACHE_MSHR_HH
