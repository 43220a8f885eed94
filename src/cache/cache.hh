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

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"

namespace sac {

/** Allocation partition classes. */
constexpr int partitionLocal = 0;
constexpr int partitionRemote = 1;

/**
 * A resident line as flushIf() reports it. The array stores no such
 * record: each is rebuilt from its way's tag key and metadata.
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
 * Each set is one block of whole 64-byte host lines: the ways' 8-byte
 * tag keys, then their 8-byte LRU stamps, then 4 bytes of cold
 * metadata per way (WayMeta). A probe reads the key row; a hit or a
 * fill also writes a stamp and, for dirty or sectored state, a
 * metadata record, all in the block the probe already brought in.
 */
class SetAssocCache
{
  public:
    /** Largest chip count a line's home can name (GpuConfig's cap). */
    static constexpr int maxChips = 16;

    /**
     * @param bytes total capacity
     * @param ways associativity
     * @param line_bytes line size
     * @param sectors_per_line 1, 2 or 4; 1 for conventional caches
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
     * Installs (or completes the sector of) line-aligned @p line_addr
     * into partition @p partition, evicting a victim from that
     * partition's ways if needed. A line already resident in any way
     * is completed in place.
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
    void flushAll(
        const std::function<void(const CacheLine &)> &writeback = {});

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

    /** Valid lines currently resident. O(1): counters are maintained
     *  incrementally at every insert/evict/invalidate/flush, so the
     *  occupancy sampler never scans the array. */
    std::uint64_t validLines() const { return validCount_; }
    /** Dirty lines currently resident. O(1), see validLines(). */
    std::uint64_t dirtyLines() const { return dirtyCount_; }
    /** Valid lines whose recorded home differs from @p chip. O(1). */
    std::uint64_t remoteLines(ChipId chip) const
    {
        return validCount_ - homeCount_[homeSlot(chip)];
    }

    /** Set index for an address (exposed for the CRD's sampling). */
    std::uint64_t setIndex(Addr line_addr) const;

  private:
    /** Cold per-way state, 4 bytes; read once the way is known. */
    struct WayMeta
    {
        /** Home chip + 1 (0 = invalidChip), see homeSlot(). */
        std::uint8_t home;
        bool dirty;
        /** Valid / dirty sector bitmasks (at most 4 sectors). */
        std::uint8_t sectorValid;
        std::uint8_t sectorDirty;
    };
    static_assert(sizeof(WayMeta) == 4, "WayMeta outgrew 4 bytes");

    /** One 64-byte host cache line of set storage. */
    struct alignas(64) HostLine
    {
        unsigned char bytes[64];
    };

    /**
     * Typed views of one set's block. Invariant: a way's key is 0
     * exactly when it is invalid, and then its stamp is 0 too, while a
     * valid way's stamp is at least 1.
     */
    struct SetView
    {
        /** Probe key per way, (tag << 1) | 1; 0 = invalid. */
        std::uint64_t *keys;
        /** LRU stamp per way (useClock at its last touch). */
        std::uint64_t *stamps;
        WayMeta *meta;
    };

    SetView view(std::uint64_t set);
    SetView view(std::uint64_t set) const
    {
        return const_cast<SetAssocCache *>(this)->view(set);
    }

    /** Way of @p set holding key @p key, or -1. */
    int findWay(const SetView &set, std::uint64_t key) const;

    /**
     * True when sector @p sector of the valid line in way @p w is
     * present. A conventional line is always whole, so that case
     * never reads the metadata.
     */
    bool
    hasSector(const SetView &set, int w, unsigned sector) const
    {
        if (sectorsPerLine == 1)
            return sector == 0;
        return (set.meta[w].sectorValid & (1u << sector)) != 0;
    }

    /** Marks the line and its sector bit @p bit dirty. */
    void markDirty(WayMeta &meta, std::uint8_t bit);

    /** Drops the valid line in way @p w: counters, key, stamp, meta. */
    void removeWay(const SetView &set, int w);

    /** Counter bookkeeping for a line entering the valid set. */
    void countInsert(const WayMeta &meta);
    /** Counter bookkeeping for a valid line leaving the array. */
    void countRemove(const WayMeta &meta);

    /** Packed probe key for a line address: (tag << 1) | valid. */
    std::uint64_t tagKey(Addr line_addr) const
    {
        return ((line_addr >> lineShift) << 1) | 1u;
    }
    /** Inverse of tagKey() for a line-aligned address. */
    Addr lineAddrOf(std::uint64_t key) const
    {
        return (key >> 1) << lineShift;
    }

    /** homeCount_ slot of @p home: home + 1, so invalidChip is 0. */
    static std::size_t homeSlot(ChipId home)
    {
        return static_cast<std::size_t>(home + 1);
    }

    std::uint64_t numSets;
    int numWays;
    unsigned lineBytes;
    unsigned lineShift;
    unsigned sectorsPerLine;
    int split; // ways [0, split) = class 0, [split, ways) = class 1
    std::uint64_t useClock = 0;
    /** Host lines per set block. */
    std::uint64_t blockLines;
    /** numSets blocks of blockLines host lines each, zeroed = empty. */
    std::vector<HostLine> blocks_;
    std::uint64_t validCount_ = 0;
    std::uint64_t dirtyCount_ = 0;
    /** Valid lines per home chip, indexed by homeSlot(). */
    std::array<std::uint64_t, maxChips + 1> homeCount_{};
};

} // namespace sac

#endif // SAC_CACHE_CACHE_HH
