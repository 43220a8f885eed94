/** @file Unit tests for the open-addressing ProbeMap. */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/probe_map.hh"

namespace sac {
namespace {

/** ProbeMap's home slot for @p k in a table of @p slots slots. */
std::size_t
homeSlot(std::uint64_t k, std::size_t slots)
{
    return static_cast<std::size_t>((k * 0x9E3779B97F4A7C15ULL) >> 32) &
           (slots - 1);
}

/** The first @p n keys (counting up from 1) homed at @p slot. */
std::vector<std::uint64_t>
keysHomedAt(std::size_t slot, std::size_t slots, std::size_t n)
{
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 1; keys.size() < n; ++k) {
        if (homeSlot(k, slots) == slot)
            keys.push_back(k);
    }
    return keys;
}

TEST(ProbeMap, EraseInsideAClusterThatWrapsTheTableEnd)
{
    // A fresh map has 16 slots. Three keys homed at the last slot fill
    // slots 15, 0 and 1; a key homed at slot 0 probes on to slot 2.
    // Erasing the key at slot 15 must pull every follower back across
    // the wrap, or the later keys become unreachable.
    ProbeMap<std::uint64_t> map;
    const auto tail = keysHomedAt(15, 16, 3);
    const auto head = keysHomedAt(0, 16, 1);
    std::vector<std::uint64_t> keys = tail;
    keys.push_back(head[0]);
    for (const auto k : keys) {
        auto [value, inserted] = map.emplace(k);
        ASSERT_TRUE(inserted);
        *value = k * 3;
    }

    ASSERT_TRUE(map.erase(tail[0]));
    EXPECT_FALSE(map.contains(tail[0]));
    EXPECT_FALSE(map.erase(tail[0]));
    EXPECT_EQ(map.size(), 3u);
    for (std::size_t i = 1; i < keys.size(); ++i) {
        const auto *value = map.find(keys[i]);
        ASSERT_NE(value, nullptr) << "key " << keys[i];
        EXPECT_EQ(*value, keys[i] * 3);
    }

    // Erase from the middle of what is left, then refill the hole.
    ASSERT_TRUE(map.erase(tail[2]));
    EXPECT_EQ(*map.find(tail[1]), tail[1] * 3);
    EXPECT_EQ(*map.find(head[0]), head[0] * 3);
    auto [value, inserted] = map.emplace(tail[2]);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*value, 0u); // a new key starts value-initialized
}

TEST(ProbeMap, GrowsByRehashKeepingEveryKey)
{
    ProbeMap<std::uint64_t> map;
    const std::uint64_t n = 5000;
    for (std::uint64_t k = 0; k < n; ++k) {
        // Line-address-like keys: strided, clustered high bits.
        *map.emplace(k << 7).first = k;
    }
    EXPECT_EQ(map.size(), n);
    for (std::uint64_t k = 0; k < n; ++k) {
        const auto *value = map.find(k << 7);
        ASSERT_NE(value, nullptr) << "key " << (k << 7);
        EXPECT_EQ(*value, k);
    }
    EXPECT_FALSE(map.contains(n << 7));

    // Re-emplacing an existing key finds it instead of inserting.
    const auto [value, inserted] = map.emplace(42 << 7);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(*value, 42u);

    for (std::uint64_t k = 0; k < n; k += 2)
        ASSERT_TRUE(map.erase(k << 7));
    EXPECT_EQ(map.size(), n / 2);
    for (std::uint64_t k = 0; k < n; ++k)
        EXPECT_EQ(map.contains(k << 7), k % 2 == 1) << "key " << (k << 7);
}

TEST(ProbeMap, ClearForgetsEveryEntry)
{
    ProbeMap<int> map(64);
    for (std::uint64_t k = 0; k < 40; ++k)
        *map.emplace(k).first = 7;
    map.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.size(), 0u);
    for (std::uint64_t k = 0; k < 40; ++k)
        EXPECT_FALSE(map.contains(k));

    const auto [value, inserted] = map.emplace(3);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*value, 0);
    EXPECT_EQ(map.size(), 1u);
}

} // namespace
} // namespace sac
