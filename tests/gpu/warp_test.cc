/** @file Unit tests for the warp scheduler. */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "gpu/warp.hh"

namespace sac {
namespace {

TEST(WarpScheduler, WakeSurfacesAtTheRightCycle)
{
    WarpScheduler s(4);
    s.wake(2, 10);
    s.advance(9);
    EXPECT_FALSE(s.hasReady());
    s.advance(10);
    ASSERT_TRUE(s.hasReady());
    EXPECT_EQ(s.peek(), 2);
}

TEST(WarpScheduler, OldestReadyFirst)
{
    WarpScheduler s(4);
    s.wake(3, 5);
    s.wake(1, 3);
    s.wake(0, 4);
    s.advance(5);
    EXPECT_EQ(s.peek(), 1);
    s.consume(1);
    EXPECT_EQ(s.peek(), 0);
    s.consume(0);
    EXPECT_EQ(s.peek(), 3);
}

TEST(WarpScheduler, SameCycleWakesSurfaceInWarpIdOrder)
{
    WarpScheduler s(4);
    const Cycle late = Cycle{1} << 40; // exercises the key's cycle bits
    for (Cycle at : {Cycle{5}, late}) {
        s.wake(3, at);
        s.wake(0, at);
        s.wake(2, at);
        s.wake(1, at);
        s.advance(at);
        for (int w = 0; w < 4; ++w) {
            ASSERT_TRUE(s.hasReady());
            EXPECT_EQ(s.peek(), w);
            s.consume(w);
        }
        EXPECT_FALSE(s.hasReady());
    }
}

TEST(WarpScheduler, WakeBeyondKeyRangePanics)
{
    WarpScheduler s(2);
    EXPECT_THROW(s.wake(0, Cycle{1} << 48), PanicError);
    EXPECT_THROW(s.wake(0, cycleNever), PanicError);
}

TEST(WarpScheduler, DuplicateWakesCollapse)
{
    WarpScheduler s(2);
    s.wake(1, 0);
    s.wake(1, 0);
    s.advance(0);
    EXPECT_EQ(s.readyCount(), 1u);
}

TEST(WarpScheduler, ResetDropsEverything)
{
    WarpScheduler s(4);
    s.wake(0, 0);
    s.wake(1, 100);
    s.advance(0);
    s.reset();
    EXPECT_FALSE(s.hasReady());
    s.advance(1000);
    EXPECT_FALSE(s.hasReady());
}

TEST(WarpScheduler, ConsumeOutOfOrderPanics)
{
    WarpScheduler s(2);
    s.wake(0, 0);
    s.wake(1, 0);
    s.advance(0);
    EXPECT_THROW(s.consume(1), PanicError);
}

TEST(WarpScheduler, BadWarpIdPanics)
{
    WarpScheduler s(2);
    EXPECT_THROW(s.wake(2, 0), PanicError);
    EXPECT_THROW(s.wake(-1, 0), PanicError);
}

} // namespace
} // namespace sac
