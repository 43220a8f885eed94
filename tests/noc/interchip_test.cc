/** @file Unit tests for the inter-chip network. */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "noc/interchip.hh"

namespace sac {
namespace {

/** A packet of @p bytes, identified by its line address. */
Packet
pkt(unsigned bytes, Addr line_addr = 0)
{
    Packet p;
    p.bytes = bytes;
    p.lineAddr = line_addr;
    return p;
}

TEST(InterChip, DeliversAfterHopLatency)
{
    InterChipNet icn(4, 1000.0, 80);
    icn.beginCycle();
    icn.send(0, 2, pkt(32, 0x700), 0);
    icn.tick(0);
    Packet out;
    EXPECT_FALSE(icn.receive(2, out, 79));
    EXPECT_TRUE(icn.receive(2, out, 80));
    EXPECT_EQ(out.lineAddr, 0x700u);
    EXPECT_FALSE(icn.receive(2, out, 80));
}

TEST(InterChip, EgressBandwidthThrottles)
{
    InterChipNet icn(2, 96.0, 0);
    for (int i = 0; i < 10; ++i)
        icn.send(0, 1, pkt(96), 0);
    int received = 0;
    Packet out;
    for (Cycle t = 0; t < 5; ++t) {
        icn.beginCycle();
        icn.tick(t);
        while (icn.receive(1, out, t))
            ++received;
    }
    // 96 B/cy with 96-byte packets: ~1 per cycle (+ burst carry).
    EXPECT_GE(received, 5);
    EXPECT_LE(received, 6);
}

TEST(InterChip, PerChipEgressIsIndependent)
{
    InterChipNet icn(3, 32.0, 0);
    icn.send(0, 2, pkt(32), 0);
    icn.send(1, 2, pkt(32), 0);
    icn.beginCycle();
    icn.tick(0);
    Packet out;
    int received = 0;
    while (icn.receive(2, out, 0))
        ++received;
    EXPECT_EQ(received, 2); // both senders used their own budget
}

TEST(InterChip, CountsBytesAndInFlight)
{
    InterChipNet icn(2, 1000.0, 10);
    icn.send(0, 1, pkt(64), 0);
    EXPECT_EQ(icn.inFlight(), 1u);
    icn.beginCycle();
    icn.tick(0);
    EXPECT_EQ(icn.bytesTransferred(), 64u);
    EXPECT_EQ(icn.inFlight(), 1u); // now in the arrival queue
    Packet out;
    ASSERT_TRUE(icn.receive(1, out, 10));
    EXPECT_EQ(icn.inFlight(), 0u);
}

TEST(InterChip, SelfSendPanics)
{
    InterChipNet icn(2, 10.0, 1);
    EXPECT_THROW(icn.send(1, 1, pkt(8), 0), PanicError);
    EXPECT_THROW(icn.send(0, 5, pkt(8), 0), PanicError);
}

} // namespace
} // namespace sac
