/**
 * @file
 * Unit tests for Chip's packet dispatch: inter-chip arrivals must be
 * routed to the right virtual channel, fill queue or cluster port,
 * and memory fills must travel back to the serving chip.
 */

#include <gtest/gtest.h>

#include <deque>

#include "common/log.hh"
#include "gpu/kernel.hh"
#include "sim/chip.hh"

namespace sac {
namespace {

/** Trace source that never issues (clusters stay idle). */
class NullTrace : public TraceSource
{
  public:
    MemAccess next(ChipId, ClusterId, int) override { return {}; }
};

/** Captures everything the chip sends outward. */
class RecordingHooks : public ChipHooks
{
  public:
    void icnSend(ChipId src, ChipId dst, Packet pkt) override
    {
        pkt.nocDst = dst;
        (void)src;
        sent.push_back(pkt);
    }
    void handleWrite(const Packet &, ChipId) override { ++writes; }
    void replicaAdded(Addr, ChipId) override { ++fills; }
    void replicaRemoved(Addr, ChipId) override { ++evicts; }
    void countResponse(const Packet &) override { ++responses; }
    Cycle now() const override { return clock; }

    std::deque<Packet> sent;
    int writes = 0;
    int fills = 0;
    int evicts = 0;
    int responses = 0;
    Cycle clock = 0;
};

class ChipTest : public ::testing::Test
{
  protected:
    ChipTest()
        : cfg(makeCfg()), map(cfg.slicesPerChip, cfg.channelsPerChip,
                              cfg.lineBytes),
          chip(cfg, map, /*id=*/1, trace, hooks)
    {
    }

    static GpuConfig makeCfg()
    {
        GpuConfig c = GpuConfig::scaled(8);
        c.warpsPerCluster = 2;
        c.xbarLatency = 0;
        return c;
    }

    Packet incoming(Addr line, PacketKind kind)
    {
        Packet p;
        p.kind = kind;
        p.lineAddr = line;
        p.srcChip = 0;
        p.srcCluster = 0;
        p.homeChip = 1;
        p.serveChip = 1;
        p.slice = map.sliceIndex(line);
        p.bytes = 32;
        return p;
    }

    GpuConfig cfg;
    AddressMap map;
    NullTrace trace;
    RecordingHooks hooks;
    Chip chip;
};

TEST_F(ChipTest, MemorySideRequestGoesToSliceRequestQueue)
{
    const Addr line = 0x1000;
    chip.acceptIcnArrival(incoming(line, PacketKind::Request), 0);
    auto &slice = chip.slice(map.sliceIndex(line));
    EXPECT_EQ(slice.inQueued(), 1u);
}

TEST_F(ChipTest, BypassRequestUsesTheVirtualChannel)
{
    const Addr line = 0x2000;
    Packet p = incoming(line, PacketKind::Request);
    p.bypassLlc = true;
    p.serveChip = 0; // SM-side: served at the requester
    chip.acceptIcnArrival(p, 0);
    auto &slice = chip.slice(map.sliceIndex(line));
    EXPECT_EQ(slice.inQueued(), 0u);
    EXPECT_EQ(slice.outstanding(), 1u); // sits on the VC queue
}

TEST_F(ChipTest, HomeLevelRequestUsesTheVirtualChannel)
{
    const Addr line = 0x3000;
    Packet p = incoming(line, PacketKind::Request);
    p.atHome = true;
    p.homeLookup = true;
    p.serveChip = 0;
    chip.acceptIcnArrival(p, 0);
    EXPECT_EQ(chip.slice(map.sliceIndex(line)).inQueued(), 0u);
    EXPECT_EQ(chip.slice(map.sliceIndex(line)).outstanding(), 1u);
}

TEST_F(ChipTest, DirectBypassSkipsTheSharedPorts)
{
    chip.setDirectBypass(true); // two-NoC SM-side baseline
    const Addr line = 0x4000;
    Packet p = incoming(line, PacketKind::Request);
    p.bypassLlc = true;
    p.serveChip = 0;
    chip.acceptIcnArrival(p, 0);
    EXPECT_EQ(chip.slice(map.sliceIndex(line)).outstanding(), 0u);
    EXPECT_EQ(chip.memCtrl().inFlight(), 1u);
}

TEST_F(ChipTest, ResponseForLocalClusterIsDeliveredAndCounted)
{
    Packet p = incoming(0x5000, PacketKind::Response);
    p.srcChip = 1; // our own cluster issued it
    p.serveFilled = true;
    p.type = AccessType::Read;
    p.origin = ResponseOrigin::RemoteLlc;
    chip.acceptIcnArrival(p, 0);
    EXPECT_EQ(hooks.responses, 1);
}

TEST_F(ChipTest, UnfilledResponseGoesToTheSliceFillQueue)
{
    const Addr line = 0x6000;
    Packet p = incoming(line, PacketKind::Response);
    p.serveChip = 1;
    p.serveFilled = false;
    chip.acceptIcnArrival(p, 0);
    EXPECT_EQ(chip.slice(map.sliceIndex(line)).fillQueued(), 1u);
    EXPECT_EQ(hooks.responses, 0);
}

TEST_F(ChipTest, InvalidationDropsLlcAndL1Copies)
{
    const Addr line = 0x7000;
    auto &slice = chip.slice(map.sliceIndex(line));
    slice.cache().insert(line, 0, 0, false, partitionLocal);
    ASSERT_TRUE(slice.cache().probe(line, 0));
    Packet inv = incoming(line, PacketKind::Invalidate);
    chip.acceptIcnArrival(inv, 0);
    EXPECT_FALSE(slice.cache().probe(line, 0));
}

TEST_F(ChipTest, MemoryFillForRemoteServeChipCrossesTheIcn)
{
    // A bypass fetch from chip 0 lands in our memory; the fill must be
    // sent back to chip 0's slice, not delivered locally.
    const Addr line = 0x8000;
    Packet p = incoming(line, PacketKind::Request);
    p.bypassLlc = true;
    p.serveChip = 0;
    chip.acceptIcnArrival(p, 0);
    // Drain the VC into memory and let DRAM complete.
    bool sent_back = false;
    for (Cycle t = 0; t < 2000 && !sent_back; ++t) {
        hooks.clock = t;
        chip.tickSlices(t);
        chip.tickMemory(t);
        for (const auto &pkt : hooks.sent) {
            if (pkt.kind == PacketKind::Response && pkt.nocDst == 0) {
                sent_back = true;
                EXPECT_FALSE(pkt.serveFilled);
            }
        }
    }
    EXPECT_TRUE(sent_back);
}

TEST_F(ChipTest, WaySplitAppliesToEverySlice)
{
    chip.setWaySplit(4);
    for (int s = 0; s < chip.numSlices(); ++s)
        EXPECT_EQ(chip.slice(s).cache().waySplit(), 4);
}

TEST_F(ChipTest, ClustersStartDone)
{
    // No kernel launched: clusters are trivially done and outstanding
    // work is zero.
    chip.beginKernel(0, chip.numClusters(), 0, 0);
    EXPECT_TRUE(chip.clustersDone(0, chip.numClusters()));
    EXPECT_EQ(chip.outstanding(), 0u);
}

} // namespace
} // namespace sac
