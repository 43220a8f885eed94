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
      lines(numSets * static_cast<std::uint64_t>(ways)),
      tagKeys_(lines.size(), 0),
      lastUse_(lines.size(), 0)
{
    SAC_ASSERT(numSets > 0, "cache has zero sets");
    SAC_ASSERT(isPowerOfTwo(numSets), "set count must be a power of two");
    SAC_ASSERT(sectorsPerLine >= 1 && sectorsPerLine <= 32,
               "unsupported sector count");
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

std::uint64_t
SetAssocCache::findWay(Addr line_addr) const
{
    const std::uint64_t key = tagKey(line_addr >> lineShift);
    const std::uint64_t row =
        setIndex(line_addr) * static_cast<std::uint64_t>(numWays);
    const std::uint64_t *keys = &tagKeys_[row];
    for (int w = 0; w < numWays; ++w) {
        if (keys[w] == key)
            return row + static_cast<std::uint64_t>(w);
    }
    return noWay;
}

CacheAccessResult
SetAssocCache::access(Addr line_addr, unsigned sector, bool is_write)
{
    SAC_ASSERT(sector < sectorsPerLine, "sector out of range");
    CacheAccessResult res;
    const std::uint64_t i = findWay(line_addr);
    if (i == noWay)
        return res;
    lastUse_[i] = ++useClock;
    if (!hasSector(i, sector)) {
        res.sectorMiss = true;
        return res;
    }
    res.hit = true;
    if (is_write) {
        CacheLine &line = lines[i];
        if (!line.dirty)
            ++dirtyCount_;
        line.dirty = true;
        line.sectorDirty |= 1u << sector;
    }
    return res;
}

bool
SetAssocCache::probe(Addr line_addr, unsigned sector) const
{
    const std::uint64_t i = findWay(line_addr);
    return i != noWay && hasSector(i, sector);
}

EvictResult
SetAssocCache::insert(Addr line_addr, unsigned sector, ChipId home,
                      bool dirty, int partition)
{
    SAC_ASSERT(partition == partitionLocal || partition == partitionRemote,
               "bad partition class ", partition);
    EvictResult res;
    const std::uint32_t bit = 1u << sector;

    if (const std::uint64_t i = findWay(line_addr); i != noWay) {
        // Sector fill into an already-present line.
        CacheLine &line = lines[i];
        line.sectorValid |= bit;
        if (dirty) {
            if (!line.dirty)
                ++dirtyCount_;
            line.dirty = true;
            line.sectorDirty |= bit;
        }
        lastUse_[i] = ++useClock;
        return res;
    }

    const int first = partition == partitionLocal ? 0 : split;
    const int count = partition == partitionLocal ? split : numWays - split;
    SAC_ASSERT(count > 0, "allocation into an empty partition");

    // LRU victim within the partition's ways: the first invalid way
    // (key 0), else the first way with the oldest stamp.
    const std::uint64_t row =
        setIndex(line_addr) * static_cast<std::uint64_t>(numWays);
    const std::uint64_t *keys = &tagKeys_[row];
    const std::uint64_t *stamps = &lastUse_[row];
    int victim = first;
    for (int w = first; w < first + count; ++w) {
        if (keys[w] == 0) {
            victim = w;
            break;
        }
        if (stamps[w] < stamps[victim])
            victim = w;
    }

    const std::uint64_t i = row + static_cast<std::uint64_t>(victim);
    CacheLine &slot = lines[i];
    if (keys[victim] != 0) {
        res.evicted = true;
        res.dirty = slot.dirty;
        res.lineAddr = slot.lineAddr;
        res.home = slot.home;
        countRemove(slot);
    }
    slot.dirty = dirty;
    slot.lineAddr = line_addr;
    slot.home = home;
    slot.sectorValid = sectorsPerLine == 1 ? 1u : bit;
    slot.sectorDirty = dirty ? slot.sectorValid : 0u;
    tagKeys_[i] = tagKey(line_addr >> lineShift);
    lastUse_[i] = ++useClock;
    countInsert(slot);
    return res;
}

void
SetAssocCache::flushAll(const std::function<void(const CacheLine &)> &writeback)
{
    flushIf([](const CacheLine &) { return true; }, writeback);
}

void
SetAssocCache::flushIf(const std::function<bool(const CacheLine &)> &pred,
                       const std::function<void(const CacheLine &)> &writeback)
{
    for (std::uint64_t i = 0; i < lines.size(); ++i) {
        const CacheLine &line = lines[i];
        if (tagKeys_[i] == 0 || !pred(line))
            continue;
        if (line.dirty && writeback)
            writeback(line);
        removeWay(i);
    }
}

bool
SetAssocCache::invalidate(Addr line_addr)
{
    const std::uint64_t i = findWay(line_addr);
    if (i == noWay)
        return false;
    removeWay(i);
    return true;
}

void
SetAssocCache::removeWay(std::uint64_t i)
{
    countRemove(lines[i]);
    lines[i] = CacheLine{};
    tagKeys_[i] = 0;
    lastUse_[i] = 0;
}

void
SetAssocCache::setWaySplit(int local_ways)
{
    SAC_ASSERT(local_ways >= 0 && local_ways <= numWays,
               "way split out of range");
    split = local_ways;
}

void
SetAssocCache::countInsert(const CacheLine &line)
{
    ++validCount_;
    if (line.dirty)
        ++dirtyCount_;
    const std::size_t slot = static_cast<std::size_t>(line.home + 1);
    if (slot >= homeCount_.size())
        homeCount_.resize(slot + 1, 0);
    ++homeCount_[slot];
}

void
SetAssocCache::countRemove(const CacheLine &line)
{
    SAC_ASSERT(validCount_ > 0, "removing from an empty cache");
    --validCount_;
    if (line.dirty)
        --dirtyCount_;
    const std::size_t slot = static_cast<std::size_t>(line.home + 1);
    SAC_ASSERT(slot < homeCount_.size() && homeCount_[slot] > 0,
               "home count underflow for chip ", line.home);
    --homeCount_[slot];
}

} // namespace sac
