/**
 * @file
 * LLC coherence support for organizations that cache remote data.
 *
 * Software coherence (the commercial default): no per-write actions;
 * at kernel boundaries dirty replicated data is written back and the
 * replicating caches are invalidated. The System charges that flush
 * through llc/flush_model.hh.
 *
 * Hardware coherence (evaluated in Fig. 14): a directory at each
 * line's home chip tracks which chips hold replicas; a write updates
 * the local copy and invalidates all other copies (the paper's
 * variant of HMG, see footnote 3).
 */

#ifndef SAC_LLC_COHERENCE_HH
#define SAC_LLC_COHERENCE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace sac {

/** Sharer-tracking directory, logically distributed across homes. */
class Directory
{
  public:
    explicit Directory(int num_chips);

    /** Records that @p chip holds a replica of @p line_addr. */
    void addSharer(Addr line_addr, ChipId chip);

    /** Removes @p chip's replica record (eviction/invalidation). */
    void removeSharer(Addr line_addr, ChipId chip);

    /** Bitmask of chips holding replicas. */
    std::uint32_t sharers(Addr line_addr) const;

    /** Chips (other than @p except) holding replicas. */
    std::vector<ChipId> sharersExcept(Addr line_addr, ChipId except) const;

    std::size_t trackedLines() const { return table.size(); }
    void clear() { table.clear(); }

  private:
    int chips;
    std::unordered_map<Addr, std::uint32_t> table;
};

/** Coherence policy wrapper used by the System. */
class CoherenceManager
{
  public:
    CoherenceManager(CoherenceKind kind, int num_chips);

    CoherenceKind kind() const { return kind_; }
    Directory &directory() { return dir; }
    const Directory &directory() const { return dir; }

    /**
     * Hardware coherence: chips to invalidate when @p writer writes
     * @p line_addr. Empty under software coherence.
     */
    std::vector<ChipId> invalidationTargets(Addr line_addr, ChipId writer);

    std::uint64_t invalidationsSent() const { return invalidations; }

  private:
    CoherenceKind kind_;
    Directory dir;
    std::uint64_t invalidations = 0;
};

} // namespace sac

#endif // SAC_LLC_COHERENCE_HH
