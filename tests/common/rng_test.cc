/** @file Unit and property tests for the deterministic RNG. */

#include <gtest/gtest.h>

#include "common/rng.hh"

namespace sac {
namespace {

TEST(Rng, SameSeedSameStream)
{
    Rng a(42, 7);
    Rng b(42, 7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSaltDifferentStream)
{
    Rng a(42, 1);
    Rng b(42, 2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInBounds)
{
    Rng rng(1);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
        for (int i = 0; i < 1000; ++i)
            EXPECT_LT(rng.nextBounded(bound), bound);
    }
}

TEST(Rng, BoundedIsRoughlyUniform)
{
    Rng rng(3);
    int buckets[10] = {};
    for (int i = 0; i < 100000; ++i)
        ++buckets[rng.nextBounded(10)];
    for (const int count : buckets) {
        EXPECT_GT(count, 9000);
        EXPECT_LT(count, 11000);
    }
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(5);
    double sum = 0;
    for (int i = 0; i < 100000; ++i) {
        const double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng rng(9);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

} // namespace
} // namespace sac
