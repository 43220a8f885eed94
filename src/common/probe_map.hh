/**
 * @file
 * Open-addressing hash map for the simulator's hot lookups.
 *
 * `std::unordered_map` allocates a node per insert and frees it per
 * erase, which on the MSHR files and the page table means allocator
 * traffic on every primary miss and every first touch. This map keeps
 * keys, values and occupancy flags in three flat power-of-two arrays
 * (linear probing, multiplicative hashing, backward-shift deletion),
 * so steady-state insert/erase cycles touch no allocator at all.
 *
 * Keys are raw 64-bit values; any key is valid (occupancy lives in a
 * separate state array, not in a sentinel key).
 */

#ifndef SAC_COMMON_PROBE_MAP_HH
#define SAC_COMMON_PROBE_MAP_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sac {

/** Flat linear-probing hash map from uint64_t to @p V. */
template <typename V>
class ProbeMap
{
  public:
    /** @param expected sizing hint: slots for this many keys. */
    explicit ProbeMap(std::size_t expected = 0)
    {
        rehash(slotsFor(expected));
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Value for @p k, or null when absent. */
    V *
    find(std::uint64_t k)
    {
        const std::size_t i = locate(k);
        return state_[i] ? &vals_[i] : nullptr;
    }

    const V *
    find(std::uint64_t k) const
    {
        const std::size_t i = locate(k);
        return state_[i] ? &vals_[i] : nullptr;
    }

    bool contains(std::uint64_t k) const { return find(k) != nullptr; }

    /**
     * Finds or inserts @p k. Returns the value slot and whether the
     * key was newly inserted; a new key's value is value-initialized.
     */
    std::pair<V *, bool>
    emplace(std::uint64_t k)
    {
        if ((size_ + 1) * 4 > (mask_ + 1) * 3)
            rehash((mask_ + 1) * 2);
        const std::size_t i = locate(k);
        if (state_[i])
            return {&vals_[i], false};
        state_[i] = 1;
        keys_[i] = k;
        vals_[i] = V{};
        ++size_;
        return {&vals_[i], true};
    }

    /** Removes @p k; false when absent. */
    bool
    erase(std::uint64_t k)
    {
        std::size_t free = locate(k);
        if (!state_[free])
            return false;
        // Backward-shift deletion: walk the cluster after the hole and
        // pull back every entry whose probe path crosses it.
        std::size_t j = free;
        while (true) {
            j = (j + 1) & mask_;
            if (!state_[j])
                break;
            const std::size_t h = home(keys_[j]);
            if (((j - h) & mask_) >= ((j - free) & mask_)) {
                keys_[free] = keys_[j];
                vals_[free] = std::move(vals_[j]);
                free = j;
            }
        }
        state_[free] = 0;
        --size_;
        return true;
    }

    /** Forgets every entry. */
    void
    clear()
    {
        std::fill(state_.begin(), state_.end(), std::uint8_t{0});
        size_ = 0;
    }

  private:
    static std::size_t
    slotsFor(std::size_t expected)
    {
        // Keep load factor under 3/4 for the expected population.
        std::size_t n = 16;
        while (n * 3 < expected * 4)
            n *= 2;
        return n;
    }

    std::size_t
    home(std::uint64_t k) const
    {
        // Fibonacci hashing spreads clustered line addresses across
        // the table; the high product bits select the slot.
        return static_cast<std::size_t>(
                   (k * 0x9E3779B97F4A7C15ULL) >> 32) &
               mask_;
    }

    /** Slot holding @p k, or the empty slot where it would go. */
    std::size_t
    locate(std::uint64_t k) const
    {
        std::size_t i = home(k);
        while (state_[i] && keys_[i] != k)
            i = (i + 1) & mask_;
        return i;
    }

    void
    rehash(std::size_t slots)
    {
        std::vector<std::uint8_t> oldState = std::move(state_);
        std::vector<std::uint64_t> oldKeys = std::move(keys_);
        std::vector<V> oldVals = std::move(vals_);

        state_.assign(slots, 0);
        keys_.assign(slots, 0);
        vals_ = std::vector<V>(slots);
        mask_ = slots - 1;
        size_ = 0;

        for (std::size_t i = 0; i < oldState.size(); ++i) {
            if (!oldState[i]) {
                continue;
            }
            const std::size_t j = locate(oldKeys[i]);
            state_[j] = 1;
            keys_[j] = oldKeys[i];
            vals_[j] = std::move(oldVals[i]);
            ++size_;
        }
    }

    std::vector<std::uint8_t> state_;
    std::vector<std::uint64_t> keys_;
    std::vector<V> vals_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

} // namespace sac

#endif // SAC_COMMON_PROBE_MAP_HH
