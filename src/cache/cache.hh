/**
 * @file
 * Set-associative cache array with way partitioning and optional
 * sectored lines.
 *
 * This is the tag/state model shared by the per-cluster L1s and the
 * LLC slices. It knows nothing about networks or organizations; the
 * LLC slice layers bypass/partition policy on top.
 *
 * Way partitioning supports the Static (L1.5) and Dynamic baselines:
 * partition class 0 allocates in ways [0, split) and class 1 in
 * [split, ways). Lookups always search every way, so moving the split
 * never loses data — lines left stranded in the other class's ways
 * simply age out.
 */

#ifndef SAC_CACHE_CACHE_HH
#define SAC_CACHE_CACHE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"

namespace sac {

/** Allocation partition classes. */
constexpr int partitionLocal = 0;
constexpr int partitionRemote = 1;

/**
 * Cold metadata of one resident cache line: what a hit, a fill or an
 * eviction reads once the way is known. Validity, the probe key and
 * the LRU stamp live in SetAssocCache's packed per-way arrays instead.
 */
struct CacheLine
{
    Addr lineAddr = 0;
    /** Home chip of the line (writeback destination for replicas). */
    ChipId home = invalidChip;
    /** Bitmask of valid sectors (all set for conventional caches). */
    std::uint32_t sectorValid = 0;
    /** Bitmask of dirty sectors. */
    std::uint32_t sectorDirty = 0;
    bool dirty = false;
};

static_assert(sizeof(CacheLine) <= 24, "CacheLine outgrew 24 bytes");

/** Outcome of a cache access. */
struct CacheAccessResult
{
    /** Tag matched and the requested sector was valid. */
    bool hit = false;
    /** Tag matched but the sector was missing (sectored caches). */
    bool sectorMiss = false;
};

/** Outcome of a fill/insert: the victim, if one was displaced. */
struct EvictResult
{
    bool evicted = false;
    bool dirty = false;
    Addr lineAddr = 0;
    ChipId home = invalidChip;
};

/**
 * Tag array with LRU replacement, optional sectoring and a two-class
 * way partition.
 *
 * Struct-of-arrays layout: a probe scans one packed row of 8-byte tag
 * keys and victim selection scans that row plus the parallel row of
 * LRU stamps, so neither touches the CacheLine records.
 */
class SetAssocCache
{
  public:
    /**
     * @param bytes total capacity
     * @param ways associativity
     * @param line_bytes line size
     * @param sectors_per_line 1 for conventional caches
     */
    SetAssocCache(std::uint64_t bytes, int ways, unsigned line_bytes,
                  unsigned sectors_per_line = 1);

    /**
     * Looks up @p line_addr / @p sector, updating recency on a tag
     * match and marking dirtiness for writes that hit.
     */
    CacheAccessResult access(Addr line_addr, unsigned sector, bool is_write);

    /** Lookup without any state change. */
    bool probe(Addr line_addr, unsigned sector) const;

    /**
     * Installs (or completes the sector of) @p line_addr into
     * partition @p partition, evicting a victim from that partition's
     * ways if needed.
     *
     * @param home home chip recorded for writeback routing
     * @param dirty install in dirty state (write allocation)
     */
    EvictResult insert(Addr line_addr, unsigned sector, ChipId home,
                       bool dirty, int partition);

    /**
     * Invalidates every line, returning dirty lines through
     * @p writeback (if provided) before dropping them.
     */
    void flushAll(const std::function<void(const CacheLine &)> &writeback = {});

    /**
     * Invalidates lines matching @p pred (e.g., "home != this chip"),
     * reporting dirty ones through @p writeback first.
     */
    void flushIf(const std::function<bool(const CacheLine &)> &pred,
                 const std::function<void(const CacheLine &)> &writeback = {});

    /** Invalidates one line if present; returns true when it was. */
    bool invalidate(Addr line_addr);

    /** Moves the class-0/class-1 way split (Dynamic LLC). */
    void setWaySplit(int local_ways);
    int waySplit() const { return split; }

    int ways() const { return numWays; }
    std::uint64_t sets() const { return numSets; }
    unsigned sectors() const { return sectorsPerLine; }
    std::uint64_t capacityBytes() const
    {
        return numSets * static_cast<std::uint64_t>(numWays) * lineBytes;
    }

    /** Valid lines currently resident. O(1): counters are maintained
     *  incrementally at every insert/evict/invalidate/flush, so the
     *  occupancy sampler never scans the array. */
    std::uint64_t validLines() const { return validCount_; }
    /** Dirty lines currently resident. O(1), see validLines(). */
    std::uint64_t dirtyLines() const { return dirtyCount_; }
    /** Valid lines whose recorded home differs from @p chip. O(1). */
    std::uint64_t remoteLines(ChipId chip) const
    {
        return validCount_ - homeCount(chip);
    }

    /** Set index for an address (exposed for the CRD's sampling). */
    std::uint64_t setIndex(Addr line_addr) const;

  private:
    /** No way holds the line (findWay's miss result). */
    static constexpr std::uint64_t noWay = ~std::uint64_t{0};

    /** Flat index (set * ways + way) of @p line_addr, or noWay. */
    std::uint64_t findWay(Addr line_addr) const;

    /**
     * True when sector @p sector of the valid line at @p i is present.
     * A conventional line is always whole (sectorValid == 1), so that
     * case never reads the CacheLine record.
     */
    bool
    hasSector(std::uint64_t i, unsigned sector) const
    {
        if (sectorsPerLine == 1)
            return sector == 0;
        return (lines[i].sectorValid & (1u << sector)) != 0;
    }

    /** Drops the valid line at @p i (counters, key and record). */
    void removeWay(std::uint64_t i);

    /** Counter bookkeeping for a line entering the valid set. */
    void countInsert(const CacheLine &line);
    /** Counter bookkeeping for a valid line leaving the array. */
    void countRemove(const CacheLine &line);
    /** Resident-line count for one home chip (slot 0 = invalidChip). */
    std::uint64_t homeCount(ChipId home) const
    {
        const std::size_t slot = static_cast<std::size_t>(home + 1);
        return slot < homeCount_.size() ? homeCount_[slot] : 0;
    }

    /** Packed probe key for one way: (tag << 1) | valid. */
    static std::uint64_t
    tagKey(Addr tag)
    {
        return (static_cast<std::uint64_t>(tag) << 1) | 1u;
    }

    std::uint64_t numSets;
    int numWays;
    unsigned lineBytes;
    unsigned lineShift;
    unsigned sectorsPerLine;
    int split; // ways [0, split) = class 0, [split, ways) = class 1
    std::uint64_t useClock = 0;
    std::vector<CacheLine> lines; // numSets x numWays, row-major
    /**
     * Probe key per way, (tag << 1) | 1, packed 8 bytes each so a
     * probe touches one or two host cache lines — findWay is the
     * hottest loop in the simulator (every L1 and LLC access). 0 means
     * the way is invalid, and is the only record of validity;
     * maintained by every path that fills, retags or drops a way.
     */
    std::vector<std::uint64_t> tagKeys_; // numSets x numWays, row-major
    /** LRU stamp per way (useClock at its last touch), beside tagKeys_. */
    std::vector<std::uint64_t> lastUse_; // numSets x numWays, row-major
    std::uint64_t validCount_ = 0;
    std::uint64_t dirtyCount_ = 0;
    /** Valid lines per home chip, indexed by home + 1 (invalidChip
     *  lands in slot 0); grown on demand. */
    std::vector<std::uint64_t> homeCount_;
};

} // namespace sac

#endif // SAC_CACHE_CACHE_HH
