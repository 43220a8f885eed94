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

TEST(BwQueue, AtRestMeansEmptyWithAFullBudget)
{
    // A queue at rest stays at rest across beginCycle(): the refill
    // saturates at the 2 * bw cap, so an idle cycle changes nothing.
    BwQueue idle(7.3, 0);
    EXPECT_FALSE(idle.atRest()); // a fresh queue starts with no credit
    idle.beginCycle();
    EXPECT_FALSE(idle.atRest());
    idle.beginCycle();
    ASSERT_TRUE(idle.atRest());
    for (int i = 0; i < 100; ++i) {
        idle.beginCycle();
        ASSERT_TRUE(idle.atRest()) << "after " << i << " more refills";
    }

    // A queue in debt is empty but not at rest until the refills
    // bring its budget back to the cap: 112 B of debt at 8 B/cy take
    // 14 refills to reach zero and two more to reach the 16 B cap.
    BwQueue debt(8.0, 0);
    debt.push(pkt(128), 0);
    debt.beginCycle();
    debt.beginCycle();
    ASSERT_FALSE(debt.atRest()); // a packet is queued
    debt.popHead();              // budget 16 - 128 = -112
    int refills = 0;
    while (!debt.atRest()) {
        ASSERT_TRUE(debt.empty());
        debt.beginCycle();
        ASSERT_LT(++refills, 100) << "debt never repaid";
    }
    EXPECT_EQ(refills, 16); // -112 + 16 * 8 = 16 = 2 * bw
}

} // namespace
} // namespace sac
