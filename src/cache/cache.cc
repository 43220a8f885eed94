#include "cache/cache.hh"

#include "common/bitutil.hh"
#include "common/log.hh"

namespace sac {

SetAssocCache::SetAssocCache(std::uint64_t bytes, int ways,
                             unsigned line_bytes, unsigned sectors_per_line)
    : numSets(bytes / (static_cast<std::uint64_t>(ways) * line_bytes)),
      numWays(ways),
      lineBytes(line_bytes),
      lineShift(floorLog2(line_bytes)),
      sectorsPerLine(sectors_per_line),
      split(ways),
      blockLines(ceilDiv(static_cast<std::uint64_t>(ways) *
                             (2 * sizeof(std::uint64_t) + sizeof(WayMeta)),
                         sizeof(HostLine))),
      blocks_(numSets * blockLines)
{
    SAC_ASSERT(numSets > 0, "cache has zero sets");
    SAC_ASSERT(isPowerOfTwo(numSets), "set count must be a power of two");
    SAC_ASSERT(sectorsPerLine == 1 || sectorsPerLine == 2 ||
                   sectorsPerLine == 4,
               "unsupported sector count ", sectorsPerLine);
}

std::uint64_t
SetAssocCache::setIndex(Addr line_addr) const
{
    // Hash the index so synthetic strided footprints spread across
    // sets the way PAE-mapped real addresses would. The salt
    // decorrelates this hash from the slice-selection hash in
    // AddressMap (identical hashes would strand 1/slices of the sets,
    // because slice selection already fixed the low hash bits).
    return mix64((line_addr >> lineShift) ^ 0x5bd1e995bd1eULL) &
           (numSets - 1);
}

SetAssocCache::SetView
SetAssocCache::view(std::uint64_t set)
{
    auto *keys =
        reinterpret_cast<std::uint64_t *>(blocks_[set * blockLines].bytes);
    return {keys, keys + numWays,
            reinterpret_cast<WayMeta *>(keys + 2 * numWays)};
}

int
SetAssocCache::findWay(const SetView &set, std::uint64_t key) const
{
    for (int w = 0; w < numWays; ++w) {
        if (set.keys[w] == key)
            return w;
    }
    return -1;
}

CacheAccessResult
SetAssocCache::access(Addr line_addr, unsigned sector, bool is_write)
{
    SAC_ASSERT(sector < sectorsPerLine, "sector out of range");
    CacheAccessResult res;
    const SetView set = view(setIndex(line_addr));
    const int w = findWay(set, tagKey(line_addr));
    if (w < 0)
        return res;
    set.stamps[w] = ++useClock;
    if (!hasSector(set, w, sector)) {
        res.sectorMiss = true;
        return res;
    }
    res.hit = true;
    if (is_write)
        markDirty(set.meta[w], static_cast<std::uint8_t>(1u << sector));
    return res;
}

bool
SetAssocCache::probe(Addr line_addr, unsigned sector) const
{
    const SetView set = view(setIndex(line_addr));
    const int w = findWay(set, tagKey(line_addr));
    return w >= 0 && hasSector(set, w, sector);
}

EvictResult
SetAssocCache::insert(Addr line_addr, unsigned sector, ChipId home,
                      bool dirty, int partition)
{
    SAC_ASSERT(partition == partitionLocal || partition == partitionRemote,
               "bad partition class ", partition);
    SAC_ASSERT(home >= invalidChip && home < maxChips, "home chip ", home,
               " out of range");
    // The evicted address is rebuilt from the tag key, so it must
    // carry no offset bits.
    SAC_ASSERT((line_addr & (lineBytes - 1)) == 0,
               "unaligned line address ", line_addr);
    const std::uint64_t key = tagKey(line_addr);
    const SetView set = view(setIndex(line_addr));
    const auto bit = static_cast<std::uint8_t>(1u << sector);
    const int first = partition == partitionLocal ? 0 : split;
    const int end = partition == partitionLocal ? split : numWays;

    // One pass over the row. A tag match in any way completes the line
    // in place. Otherwise the victim is the partition's first way with
    // the oldest stamp: its first invalid way when it has one, since
    // an invalid way's stamp is 0 and a valid way's at least 1.
    int victim = first;
    for (int w = 0; w < numWays; ++w) {
        if (set.keys[w] == key) {
            // Sector fill into an already-present line.
            WayMeta &meta = set.meta[w];
            meta.sectorValid |= bit;
            if (dirty)
                markDirty(meta, bit);
            set.stamps[w] = ++useClock;
            return {};
        }
        if (w >= first && w < end && set.stamps[w] < set.stamps[victim])
            victim = w;
    }
    SAC_ASSERT(first < end, "allocation into an empty partition");

    EvictResult res;
    WayMeta &meta = set.meta[victim];
    if (set.keys[victim] != 0) {
        res.evicted = true;
        res.dirty = meta.dirty;
        res.lineAddr = lineAddrOf(set.keys[victim]);
        res.home = meta.home - 1;
        countRemove(meta);
    }
    meta.home = static_cast<std::uint8_t>(homeSlot(home));
    meta.dirty = dirty;
    meta.sectorValid = sectorsPerLine == 1 ? std::uint8_t{1} : bit;
    meta.sectorDirty = dirty ? meta.sectorValid : 0;
    set.keys[victim] = key;
    set.stamps[victim] = ++useClock;
    countInsert(meta);
    return res;
}

void
SetAssocCache::flushAll(
    const std::function<void(const CacheLine &)> &writeback)
{
    flushIf([](const CacheLine &) { return true; }, writeback);
}

void
SetAssocCache::flushIf(const std::function<bool(const CacheLine &)> &pred,
                       const std::function<void(const CacheLine &)> &writeback)
{
    for (std::uint64_t s = 0; s < numSets; ++s) {
        const SetView set = view(s);
        for (int w = 0; w < numWays; ++w) {
            if (set.keys[w] == 0)
                continue;
            const WayMeta &meta = set.meta[w];
            CacheLine line;
            line.lineAddr = lineAddrOf(set.keys[w]);
            line.home = meta.home - 1;
            line.sectorValid = meta.sectorValid;
            line.sectorDirty = meta.sectorDirty;
            line.dirty = meta.dirty;
            if (!pred(line))
                continue;
            if (line.dirty && writeback)
                writeback(line);
            removeWay(set, w);
        }
    }
}

bool
SetAssocCache::invalidate(Addr line_addr)
{
    const SetView set = view(setIndex(line_addr));
    const int w = findWay(set, tagKey(line_addr));
    if (w < 0)
        return false;
    removeWay(set, w);
    return true;
}

void
SetAssocCache::markDirty(WayMeta &meta, std::uint8_t bit)
{
    if (!meta.dirty)
        ++dirtyCount_;
    meta.dirty = true;
    meta.sectorDirty |= bit;
}

void
SetAssocCache::removeWay(const SetView &set, int w)
{
    countRemove(set.meta[w]);
    set.meta[w] = WayMeta{};
    set.keys[w] = 0;
    set.stamps[w] = 0;
}

void
SetAssocCache::setWaySplit(int local_ways)
{
    SAC_ASSERT(local_ways >= 0 && local_ways <= numWays,
               "way split out of range");
    split = local_ways;
}

void
SetAssocCache::countInsert(const WayMeta &meta)
{
    ++validCount_;
    if (meta.dirty)
        ++dirtyCount_;
    ++homeCount_[meta.home];
}

void
SetAssocCache::countRemove(const WayMeta &meta)
{
    SAC_ASSERT(validCount_ > 0, "removing from an empty cache");
    --validCount_;
    if (meta.dirty)
        --dirtyCount_;
    SAC_ASSERT(homeCount_[meta.home] > 0, "home count underflow for chip ",
               meta.home - 1);
    --homeCount_[meta.home];
}

} // namespace sac
