/** @file Unit and property tests for the bandwidth-limited queue. */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "noc/queue.hh"

namespace sac {
namespace {

Packet
pkt(unsigned bytes)
{
    Packet p;
    p.bytes = bytes;
    return p;
}

TEST(BwQueue, LatencyGatesDelivery)
{
    BwQueue q(1000.0, 10);
    q.push(pkt(8), 0);
    Packet out;
    q.beginCycle();
    EXPECT_FALSE(q.tryPop(out, 9));
    EXPECT_TRUE(q.tryPop(out, 10));
}

TEST(BwQueue, BandwidthLimitsDrainPerCycle)
{
    BwQueue q(128.0, 0);
    for (int i = 0; i < 4; ++i)
        q.push(pkt(128), 0);
    Packet out;
    int drained = 0;
    q.beginCycle();
    while (q.tryPop(out, 0))
        ++drained;
    // First cycle allows the burst carry (2x budget cap): two packets.
    EXPECT_LE(drained, 2);
    for (Cycle t = 1; t <= 4; ++t) {
        q.beginCycle();
        while (q.tryPop(out, t))
            ++drained;
    }
    EXPECT_EQ(drained, 4);
}

TEST(BwQueue, FractionalBandwidthAveragesOut)
{
    // 56 B/cy with 128-byte packets: ~0.4375 packets per cycle.
    BwQueue q(56.0, 0);
    for (int i = 0; i < 40; ++i)
        q.push(pkt(128), 0);
    Packet out;
    int drained = 0;
    for (Cycle t = 0; t < 100; ++t) {
        q.beginCycle();
        while (q.tryPop(out, t))
            ++drained;
    }
    EXPECT_GE(drained, 40 * 100 / 229 - 2); // ~43.75 - but only 40 queued
    EXPECT_EQ(drained, 40);
    EXPECT_EQ(q.bytesDrained(), 40u * 128);
}

TEST(BwQueue, ThroughputMatchesBandwidthProperty)
{
    for (double bw : {16.0, 56.0, 96.0, 256.0}) {
        BwQueue q(bw, 0);
        for (int i = 0; i < 10000; ++i)
            q.push(pkt(128), 0);
        Packet out;
        std::uint64_t drained_bytes = 0;
        const Cycle horizon = 1000;
        for (Cycle t = 0; t < horizon; ++t) {
            q.beginCycle();
            while (q.tryPop(out, t))
                drained_bytes += out.bytes;
        }
        const double expected = bw * static_cast<double>(horizon);
        EXPECT_NEAR(static_cast<double>(drained_bytes), expected,
                    expected * 0.02 + 256.0)
            << "bw=" << bw;
    }
}

TEST(BwQueue, CapacityBackpressure)
{
    BwQueue q(8.0, 0, 2);
    EXPECT_TRUE(q.canPush());
    q.push(pkt(8), 0);
    q.push(pkt(8), 0);
    EXPECT_FALSE(q.canPush());
    EXPECT_THROW(q.push(pkt(8), 0), PanicError);
}

TEST(BwQueue, PeekReadyAndPopHeadPreserveOrder)
{
    BwQueue q(1000.0, 0);
    Packet a = pkt(8);
    a.lineAddr = 0x100;
    Packet b = pkt(8);
    b.lineAddr = 0x200;
    q.push(a, 0);
    q.push(b, 0);
    q.beginCycle();
    const Packet *head = q.peekReady(0);
    ASSERT_NE(head, nullptr);
    EXPECT_EQ(head->lineAddr, 0x100u);
    q.popHead();
    head = q.peekReady(0);
    ASSERT_NE(head, nullptr);
    EXPECT_EQ(head->lineAddr, 0x200u);
}

TEST(BwQueue, OversizedPacketsSerializeAsDebt)
{
    // A 128-byte packet through an 8 B/cy link: the first packet
    // drains on the first credited cycle, then the debt blocks the
    // next one for ~16 cycles.
    BwQueue q(8.0, 0);
    q.push(pkt(128), 0);
    q.push(pkt(128), 0);
    q.beginCycle();
    ASSERT_NE(q.peekReady(0), nullptr);
    q.popHead();
    EXPECT_EQ(q.peekReady(0), nullptr); // in debt now
    Cycle t = 1;
    Packet out;
    int waited = 0;
    for (; t < 100; ++t) {
        q.beginCycle();
        if (q.tryPop(out, t))
            break;
        ++waited;
    }
    EXPECT_GE(waited, 14);
    EXPECT_LE(waited, 16);
}

TEST(BwQueue, CreditCapsAtTwoCyclesOfBandwidth)
{
    // An idle queue accrues at most one cycle of carry: after any
    // number of empty cycles the first busy cycle drains 2*bw bytes,
    // not the whole backlog.
    BwQueue q(128.0, 0);
    for (Cycle t = 0; t < 50; ++t)
        q.beginCycle(); // idle accrual, must clamp at 256 bytes
    for (int i = 0; i < 8; ++i)
        q.push(pkt(128), 50);
    Packet out;
    int drained = 0;
    while (q.tryPop(out, 50))
        ++drained;
    EXPECT_EQ(drained, 2); // exactly 2*bw / 128 packets
}

TEST(BwQueue, LatencyAndCapacityInteract)
{
    // A full queue stays full while its head is still in flight:
    // capacity is freed by draining, and draining waits on latency.
    BwQueue q(1000.0, 5, 2);
    q.push(pkt(8), 0);
    q.push(pkt(8), 0);
    EXPECT_FALSE(q.canPush());
    Packet out;
    for (Cycle t = 0; t < 5; ++t) {
        q.beginCycle();
        EXPECT_FALSE(q.tryPop(out, t));
        EXPECT_FALSE(q.canPush());
    }
    q.beginCycle();
    EXPECT_TRUE(q.tryPop(out, 5));
    EXPECT_TRUE(q.canPush());
    // The freed slot accepts a push whose latency clock starts now.
    q.push(pkt(8), 5);
    EXPECT_TRUE(q.tryPop(out, 5)); // the remaining original packet
    EXPECT_FALSE(q.tryPop(out, 9));
    q.beginCycle();
    EXPECT_TRUE(q.tryPop(out, 10));
}

TEST(BwQueue, NextEventCycleContract)
{
    // Empty: nothing will ever happen on its own.
    BwQueue q(8.0, 10);
    EXPECT_EQ(q.nextEventCycle(0), cycleNever);

    // Head still in flight: the event is its arrival cycle.
    q.push(pkt(8), 0);
    EXPECT_EQ(q.nextEventCycle(0), Cycle{10});
    EXPECT_EQ(q.nextEventCycle(7), Cycle{10});

    // Head ready and credit available: work right now.
    q.beginCycle();
    EXPECT_EQ(q.nextEventCycle(10), Cycle{10});
}

TEST(BwQueue, NextEventCycleAccountsForThisCyclesRefill)
{
    // Drain a 128-byte packet through an 8 B/cy queue: the budget
    // goes to -120 and the next packet waits on repayment. While the
    // debt is deeper than one refill the event is "next cycle"
    // (conservative; skipped refills are replayed), but once a single
    // refill would go positive the event must be "now" — the tick's
    // own beginCycle() refill precedes draining.
    BwQueue q(8.0, 0);
    q.push(pkt(128), 0);
    q.push(pkt(8), 0);
    q.beginCycle();
    ASSERT_NE(q.peekReady(0), nullptr);
    q.popHead(); // budget now 8 - 128 = -120
    Cycle t = 0;
    Packet out;
    for (;; ++t) {
        const Cycle next = q.nextEventCycle(t);
        ASSERT_NE(next, cycleNever);
        if (next == t) {
            // Claimed ready this very cycle: the reference loop's
            // refill-then-drain must succeed.
            q.beginCycle();
            ASSERT_TRUE(q.tryPop(out, t));
            break;
        }
        ASSERT_EQ(next, t + 1); // debt: one conservative step
        q.beginCycle();
        ASSERT_FALSE(q.tryPop(out, t));
        ASSERT_LT(t, Cycle{100}) << "debt never repaid";
    }
    EXPECT_EQ(t, Cycle{15}); // 120 / 8 = 15 refills to go positive
}

TEST(BwQueue, SkipIdleCyclesMatchesBeginCycleLoop)
{
    // Bit-exactness property behind fast-forward: replaying N idle
    // cycles must leave the identical budget double as N beginCycle()
    // calls, including debt repayment and saturation, for awkward
    // fractional bandwidths.
    for (double bw : {7.3, 56.0, 0.625}) {
        for (Cycle n : {Cycle{1}, Cycle{7}, Cycle{1000}}) {
            BwQueue a(bw, 0);
            BwQueue b(bw, 0);
            // Put both queues into identical debt.
            a.push(pkt(128), 0);
            b.push(pkt(128), 0);
            a.beginCycle();
            b.beginCycle();
            a.popHead();
            b.popHead();
            for (Cycle t = 0; t < n; ++t)
                a.beginCycle();
            b.skipIdleCycles(n);
            a.push(pkt(8), n);
            b.push(pkt(8), n);
            Packet out_a, out_b;
            for (Cycle t = n; t < n + 400; ++t) {
                a.beginCycle();
                b.beginCycle();
                const bool pa = a.tryPop(out_a, t);
                const bool pb = b.tryPop(out_b, t);
                ASSERT_EQ(pa, pb) << "bw=" << bw << " n=" << n
                                  << " diverged at t=" << t;
                if (pa)
                    break;
            }
        }
    }
}

TEST(BwQueue, SetBandwidthTakesEffect)
{
    BwQueue q(8.0, 0);
    q.setBandwidth(1024.0);
    for (int i = 0; i < 4; ++i)
        q.push(pkt(128), 0);
    q.beginCycle();
    Packet out;
    int n = 0;
    while (q.tryPop(out, 0))
        ++n;
    EXPECT_EQ(n, 4);
}

} // namespace
} // namespace sac
