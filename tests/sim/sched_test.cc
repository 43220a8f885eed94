/**
 * @file
 * Unit tests for the sim::Component scheduling core: WakeQueue heap
 * semantics (decrease-key, duplicate-due ordinal ordering, lazy
 * re-key) and the Scheduler behaviours the byte-identity argument
 * rests on (in-cycle ordinal order, same-cycle wake clamping, idle
 * refill replay, clock-jump exclusion, wakeAll).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/sched.hh"

namespace sac {
namespace sim {
namespace {

/** Scriptable component recording every tick and replay it receives. */
class FakeComponent final : public Component
{
  public:
    explicit FakeComponent(const char *name) : name_(name) {}

    const char *name() const override { return name_; }

    void
    tick(Cycle now) override
    {
        ticks.push_back(now);
        if (log)
            log->push_back(std::string(name_) + "@" +
                           std::to_string(now));
    }

    Cycle
    nextEventCycle(Cycle now) const override
    {
        return nextEvent >= now ? nextEvent : now;
    }

    void skipIdleCycles(Cycle cycles) override { skipped += cycles; }

    /** What nextEventCycle reports after the next tick. */
    Cycle nextEvent = cycleNever;
    std::vector<Cycle> ticks;
    Cycle skipped = 0;
    std::vector<std::string> *log = nullptr;

  private:
    const char *name_;
};

TEST(WakeQueueTest, WakeIsDecreaseKeyOnly)
{
    WakeQueue q;
    FakeComponent a("a");
    const ComponentId id = q.add(a, 100);
    EXPECT_EQ(q.keyOf(id), 100u);

    q.wake(id, 40); // earlier: takes effect
    EXPECT_EQ(q.keyOf(id), 40u);
    EXPECT_EQ(q.nextDue(), 40u);

    q.wake(id, 70); // later: ignored, deferral is the owner's re-key
    EXPECT_EQ(q.keyOf(id), 40u);

    q.rekey(id, 70); // exact set moves in either direction
    EXPECT_EQ(q.keyOf(id), 70u);
    q.rekey(id, 10);
    EXPECT_EQ(q.keyOf(id), 10u);
    EXPECT_EQ(q.nextDue(), 10u);
}

TEST(WakeQueueTest, DuplicateDueOrdersByRegistrationOrdinal)
{
    WakeQueue q;
    FakeComponent a("a"), b("b"), c("c");
    const ComponentId ia = q.add(a, 5);
    const ComponentId ib = q.add(b, 5);
    const ComponentId ic = q.add(c, 5);

    // All due at 5: the minimum must be the earliest ordinal, and
    // re-keying it must surface the next ordinal, not an arbitrary one.
    EXPECT_EQ(q.peekDue(5), ia);
    q.rekey(ia, 9);
    EXPECT_EQ(q.peekDue(5), ib);
    q.rekey(ib, 9);
    EXPECT_EQ(q.peekDue(5), ic);
    q.rekey(ic, 9);
    EXPECT_EQ(q.peekDue(5), invalidComponent);
    EXPECT_EQ(q.nextDue(), 9u);

    // Ordinal order holds even when the later ordinal was keyed first.
    q.rekey(ic, 2);
    q.rekey(ia, 2);
    EXPECT_EQ(q.peekDue(2), ia);
}

TEST(WakeQueueTest, PeekDoesNotPassFutureKeys)
{
    WakeQueue q;
    FakeComponent a("a");
    q.add(a, 8);
    EXPECT_EQ(q.peekDue(7), invalidComponent);
    EXPECT_NE(q.peekDue(8), invalidComponent);
}

TEST(SchedulerTest, RunCycleTicksDueComponentsInOrdinalOrder)
{
    Scheduler s;
    std::vector<std::string> log;
    FakeComponent a("a"), b("b"), c("c");
    a.log = b.log = c.log = &log;
    s.add(a);
    s.add(b);
    s.add(c);

    // All registered due at 0; b defers itself far out after its tick.
    a.nextEvent = 1;
    b.nextEvent = 100;
    c.nextEvent = 1;
    s.runCycle(0);
    EXPECT_EQ(log, (std::vector<std::string>{"a@0", "b@0", "c@0"}));

    log.clear();
    s.runCycle(1);
    EXPECT_EQ(log, (std::vector<std::string>{"a@1", "c@1"}));
    EXPECT_EQ(s.nextDue(), 2u); // a and c re-keyed to max(1+1, 1)
}

TEST(SchedulerTest, LazyRekeyFollowsNextEventCycle)
{
    Scheduler s;
    FakeComponent a("a");
    s.add(a);
    a.nextEvent = 50;
    s.runCycle(0);
    EXPECT_EQ(s.nextDue(), 50u);

    // A producer wake may pull the key earlier again...
    s.wake(0, 20);
    EXPECT_EQ(s.nextDue(), 20u);
    // ...and the tick at 20 lazily re-keys from the component.
    a.nextEvent = 90;
    s.runCycle(20);
    EXPECT_EQ(s.nextDue(), 90u);
}

TEST(SchedulerTest, SameCycleWakeFromLaterOrdinalClampsToNextCycle)
{
    Scheduler s;
    std::vector<std::string> log;
    FakeComponent a("a"), b("b");
    a.log = b.log = &log;
    const ComponentId ia = s.add(a);
    s.add(b);

    // While b (ordinal 1) ticks, it wakes a (ordinal 0) "now". The
    // reference loop would only show a that push next cycle, so the
    // wake must land at now + 1 — a must not tick twice at cycle 3.
    class Waker final : public Component
    {
      public:
        Waker(Scheduler &s, ComponentId target) : s_(s), target_(target) {}
        const char *name() const override { return "waker"; }
        void tick(Cycle now) override { s_.wake(target_, now); }
        Cycle nextEventCycle(Cycle) const override { return cycleNever; }

      private:
        Scheduler &s_;
        ComponentId target_;
    };
    Waker w(s, ia);
    s.add(w);

    a.nextEvent = cycleNever;
    b.nextEvent = cycleNever;
    s.runCycle(3);
    EXPECT_EQ(log, (std::vector<std::string>{"a@3", "b@3"}));
    // The waker's same-cycle wake of a landed at 4, not 3.
    EXPECT_EQ(s.nextDue(), 4u);

    log.clear();
    s.runCycle(4);
    EXPECT_EQ(log, (std::vector<std::string>{"a@4"}));
}

TEST(SchedulerTest, IdleGapsReplayPerComponent)
{
    Scheduler s;
    FakeComponent a("a");
    s.add(a);

    a.nextEvent = 10;
    s.runCycle(0); // ticked at 0, next due 10
    s.runCycle(10);
    // Cycles 1..9 passed without a tick: the replay must hand the
    // component exactly that gap before its cycle-10 tick.
    EXPECT_EQ(a.skipped, 9u);
    EXPECT_EQ(a.ticks, (std::vector<Cycle>{0, 10}));
}

TEST(SchedulerTest, ClockJumpIsExcludedFromReplay)
{
    Scheduler s;
    FakeComponent a("a");
    s.add(a);

    a.nextEvent = 20;
    s.runCycle(0);
    // The reference loop also jumps these cycles without refills
    // (kernel-boundary stall): they must not count as idle gap.
    s.onClockJump(1, 16);
    s.runCycle(20);
    EXPECT_EQ(a.skipped, 4u); // cycles 16..19 only
}

TEST(SchedulerTest, ClockJumpLandsStaleKeysInOrdinalOrder)
{
    // Keys left below the landing cycle must not pop in key order:
    // the reference loop ticks every component at the landing cycle
    // in ordinal order, whatever each was keyed for before the jump.
    Scheduler s;
    std::vector<std::string> log;
    FakeComponent a("a"), b("b");
    a.log = b.log = &log;
    s.add(a);
    s.add(b);

    a.nextEvent = 8; // the earlier ordinal is keyed later
    b.nextEvent = 5;
    s.runCycle(0);
    log.clear();

    s.onClockJump(1, 20);
    EXPECT_EQ(s.nextDue(), 20u);
    s.runCycle(20);
    EXPECT_EQ(log, (std::vector<std::string>{"a@20", "b@20"}));
    EXPECT_EQ(a.skipped, 0u);
    EXPECT_EQ(b.skipped, 0u);
}

TEST(SchedulerTest, WakeAllMakesEveryComponentDue)
{
    Scheduler s;
    FakeComponent a("a"), b("b");
    s.add(a);
    s.add(b);
    a.nextEvent = cycleNever;
    b.nextEvent = cycleNever;
    s.runCycle(0);
    EXPECT_EQ(s.nextDue(), cycleNever);

    s.wakeAll(7);
    EXPECT_EQ(s.nextDue(), 7u);
    s.runCycle(7);
    EXPECT_EQ(a.ticks, (std::vector<Cycle>{0, 7}));
    EXPECT_EQ(b.ticks, (std::vector<Cycle>{0, 7}));
}

TEST(WakeQueueTest, FlatModeKeepsKeysAuthoritative)
{
    WakeQueue q;
    FakeComponent a("a"), b("b"), c("c");
    q.add(a, 30);
    q.add(b, 10);
    q.add(c, 20);

    q.setFlat(true);
    EXPECT_TRUE(q.flat());
    // Flat-mode wake and rekey are plain stores; nextDue() still sees
    // the true minimum via the linear scan.
    q.wake(0, 5);
    EXPECT_EQ(q.nextDue(), 5u);
    q.rekey(0, 40);
    q.rekey(1, 35);
    EXPECT_EQ(q.nextDue(), 20u);

    // Returning to sparse rebuilds the heap from the (mutated) keys:
    // pops must come out in (key, ordinal) order.
    q.setFlat(false);
    EXPECT_EQ(q.peekDue(100), 2u); // c@20
    q.rekey(2, 200);
    EXPECT_EQ(q.peekDue(100), 1u); // b@35
    q.rekey(1, 200);
    EXPECT_EQ(q.peekDue(100), 0u); // a@40
}

TEST(SchedulerTest, RegimeSwitchesWithHysteresis)
{
    Scheduler s;
    FakeComponent a("a"), b("b");
    s.add(a);
    s.add(b);

    // Both components due every cycle: the due-fraction is 8/8, so
    // the scheduler enters the dense regime after enterRunLen cycles.
    a.nextEvent = 0;
    b.nextEvent = 0;
    Cycle now = 0;
    for (std::uint32_t i = 0; i < Scheduler::enterRunLen; ++i)
        s.runCycle(now++);
    EXPECT_TRUE(s.denseRegime());
    EXPECT_EQ(s.stats().denseSpans, 1u);

    // Dense cycles tick the same components in the same order.
    s.runCycle(now++);
    EXPECT_EQ(a.ticks.back(), now - 1);
    EXPECT_EQ(b.ticks.back(), now - 1);

    // Go idle: zero components due per cycle. runCycle() at future
    // cycles with nothing due records due-fraction 0, and after
    // exitRunLen such cycles the scheduler drops back to the heap.
    a.nextEvent = cycleNever;
    b.nextEvent = cycleNever;
    s.runCycle(now++); // last dense tick re-keys both to never
    for (std::uint32_t i = 0; i < Scheduler::exitRunLen; ++i)
        s.runCycle(now++);
    EXPECT_FALSE(s.denseRegime());

    // Counters add up: every cycle ran exactly once, dense cycles
    // were counted while flat, and the histogram covered both ends.
    const auto &st = s.stats();
    EXPECT_EQ(st.cycles, now);
    EXPECT_GT(st.denseCycles, 0u);
    EXPECT_LT(st.denseCycles, st.cycles);
    EXPECT_GT(st.dueHist[7], 0u); // all-due cycles
    EXPECT_GT(st.dueHist[0], 0u); // idle cycles
}

TEST(SchedulerTest, DenseSweepMatchesHeapTickSequence)
{
    // Run the same staggered workload twice — once pinned sparse,
    // once forced through the dense regime — and require identical
    // per-component tick sequences. This is the observational
    // equivalence the regime switch rests on.
    const auto run = [](bool force_dense) {
        Scheduler s;
        FakeComponent a("a"), b("b"), c("c");
        s.add(a);
        s.add(b);
        s.add(c);
        // Staggered periods: a every cycle, b every 2nd, c every 3rd.
        std::vector<std::string> log;
        a.log = b.log = c.log = &log;
        Cycle now = 0;
        if (force_dense) {
            // Saturate the due-fraction until the switch happens.
            a.nextEvent = b.nextEvent = c.nextEvent = 0;
            while (!s.denseRegime())
                s.runCycle(now++);
        }
        const Cycle base = now;
        for (Cycle i = 0; i < 64; ++i) {
            a.nextEvent = now + 1;
            b.nextEvent = now + 2 - (now - base) % 2;
            c.nextEvent = now + 3 - (now - base) % 3;
            s.runCycle(now++);
        }
        // Strip the warm-up prefix and rebase cycle numbers so the
        // two logs are comparable.
        std::vector<std::string> out;
        for (const auto &entry : log) {
            const auto at = entry.find('@');
            const Cycle c2 = std::stoull(entry.substr(at + 1));
            if (c2 >= base)
                out.push_back(entry.substr(0, at + 1) +
                              std::to_string(c2 - base));
        }
        return out;
    };
    const auto sparse = run(false);
    const auto dense = run(true);
    EXPECT_EQ(sparse, dense);
    EXPECT_FALSE(sparse.empty());
}

} // namespace
} // namespace sim
} // namespace sac
