/** @file Unit tests for the LLC slice (bypass, two-level, MSHRs). */

#include <gtest/gtest.h>

#include <deque>

#include "common/config.hh"
#include "llc/llc_slice.hh"

namespace sac {
namespace {

/** Records everything the slice asks its environment to do. */
class MockEnv : public SliceEnv
{
  public:
    bool memCanAccept(Addr) const override { return memAccepts; }
    void memPush(const Packet &pkt) override { toMem.push_back(pkt); }
    void sendToChip(ChipId dst, Packet pkt) override
    {
        pkt.nocDst = dst;
        toIcn.push_back(pkt);
    }
    void respondCluster(Packet pkt) override { toCluster.push_back(pkt); }
    void directoryFill(Addr a, ChipId c) override
    {
        fills.emplace_back(a, c);
    }
    void directoryEvict(Addr a, ChipId c) override
    {
        evicts.emplace_back(a, c);
    }
    void coherentWrite(const Packet &pkt, ChipId writer) override
    {
        writes.emplace_back(pkt.lineAddr, writer);
    }

    bool memAccepts = true;
    std::deque<Packet> toMem;
    std::deque<Packet> toIcn;
    std::deque<Packet> toCluster;
    std::vector<std::pair<Addr, ChipId>> fills;
    std::vector<std::pair<Addr, ChipId>> evicts;
    std::vector<std::pair<Addr, ChipId>> writes;
};

GpuConfig
cfg()
{
    GpuConfig c = GpuConfig::scaled(4);
    c.xbarLatency = 0;
    c.sliceMshrs = 4;
    return c;
}

/** A local read request served by this slice (chip 0). */
Packet
localRead(Addr line, ChipId home = 0)
{
    Packet p;
    p.kind = PacketKind::Request;
    p.type = AccessType::Read;
    p.lineAddr = line;
    p.srcChip = 0;
    p.srcCluster = 0;
    p.warp = 0;
    p.homeChip = home;
    p.serveChip = 0;
    p.slice = 0;
    p.bytes = 32;
    return p;
}

void
runTicks(LlcSlice &slice, MockEnv &env, Cycle from, Cycle to)
{
    for (Cycle t = from; t < to; ++t)
        slice.tick(t, env);
}

TEST(LlcSlice, LocalMissFetchesFromLocalMemory)
{
    MockEnv env;
    LlcSlice slice(cfg(), 0);
    slice.inQueue().push(localRead(0x1000, 0), 0);
    runTicks(slice, env, 0, 3);
    ASSERT_EQ(env.toMem.size(), 1u);
    EXPECT_EQ(env.toMem[0].lineAddr, 0x1000u);
    EXPECT_EQ(slice.stats().misses, 1u);
}

TEST(LlcSlice, FillThenHitRespondsFromArray)
{
    MockEnv env;
    LlcSlice slice(cfg(), 0);
    slice.inQueue().push(localRead(0x1000, 0), 0);
    runTicks(slice, env, 0, 3);
    // Memory answers.
    Packet fill = env.toMem[0];
    fill.kind = PacketKind::Response;
    fill.dataFromMem = true;
    fill.dataChip = 0;
    slice.pushFill(fill);
    runTicks(slice, env, 3, 5);
    ASSERT_EQ(env.toCluster.size(), 1u);
    EXPECT_EQ(env.toCluster[0].origin, ResponseOrigin::LocalMem);
    // Second access hits.
    slice.inQueue().push(localRead(0x1000, 0), 5);
    runTicks(slice, env, 5, 8);
    ASSERT_EQ(env.toCluster.size(), 2u);
    EXPECT_EQ(env.toCluster[1].origin, ResponseOrigin::LocalLlc);
    EXPECT_EQ(slice.stats().hits, 1u);
}

TEST(LlcSlice, SmSideRemoteMissBypassesToHome)
{
    MockEnv env;
    LlcSlice slice(cfg(), 0);
    Packet p = localRead(0x2000, /*home=*/2); // SM-side: serve locally
    slice.inQueue().push(p, 0);
    runTicks(slice, env, 0, 3);
    ASSERT_EQ(env.toIcn.size(), 1u);
    EXPECT_TRUE(env.toIcn[0].bypassLlc);
    EXPECT_EQ(env.toIcn[0].nocDst, 2);
    EXPECT_TRUE(env.toMem.empty());
}

TEST(LlcSlice, PartitionedRemoteMissGoesToHomeLevel)
{
    MockEnv env;
    LlcSlice slice(cfg(), 0);
    Packet p = localRead(0x2000, 2);
    p.allocPartition = partitionRemote;
    p.homeLookup = true;
    p.homeAllocPartition = partitionLocal;
    slice.inQueue().push(p, 0);
    runTicks(slice, env, 0, 3);
    ASSERT_EQ(env.toIcn.size(), 1u);
    EXPECT_TRUE(env.toIcn[0].atHome);
    EXPECT_FALSE(env.toIcn[0].bypassLlc);
}

TEST(LlcSlice, HomeLevelRequestServedOnVcQueue)
{
    MockEnv env;
    LlcSlice slice(cfg(), 2); // this is the home chip
    Packet p = localRead(0x2000, 2);
    p.srcChip = 0;
    p.serveChip = 0; // requester-side slice is on chip 0
    p.atHome = true;
    p.homeLookup = true;
    p.homeAllocPartition = partitionLocal;
    slice.vcQueue().push(p, 0);
    runTicks(slice, env, 0, 3);
    // Miss at home: fetches from home memory (same chip).
    ASSERT_EQ(env.toMem.size(), 1u);
    // Memory fill completes the home level and forwards to chip 0.
    Packet fill = env.toMem[0];
    fill.kind = PacketKind::Response;
    fill.dataFromMem = true;
    fill.dataChip = 2;
    slice.pushFill(fill);
    runTicks(slice, env, 3, 6);
    ASSERT_EQ(env.toIcn.size(), 1u);
    EXPECT_TRUE(env.toIcn[0].homeFilled);
    EXPECT_EQ(env.toIcn[0].nocDst, 0);
    // The home slice kept a copy (memory-side behaviour at home).
    EXPECT_TRUE(slice.cache().probe(0x2000, 0));
}

TEST(LlcSlice, BypassPacketsSkipTheArray)
{
    MockEnv env;
    LlcSlice slice(cfg(), 2);
    Packet p = localRead(0x3000, 2);
    p.srcChip = 0;
    p.serveChip = 0;
    p.bypassLlc = true;
    slice.vcQueue().push(p, 0);
    runTicks(slice, env, 0, 3);
    ASSERT_EQ(env.toMem.size(), 1u);
    EXPECT_EQ(slice.stats().bypasses, 1u);
    EXPECT_EQ(slice.stats().requests, 0u); // no lookup happened
    EXPECT_FALSE(slice.cache().probe(0x3000, 0));
}

TEST(LlcSlice, MshrCoalescesAndRespondsToAll)
{
    MockEnv env;
    LlcSlice slice(cfg(), 0);
    for (int w = 0; w < 3; ++w) {
        Packet p = localRead(0x4000, 0);
        p.warp = w;
        slice.inQueue().push(p, 0);
    }
    runTicks(slice, env, 0, 3);
    ASSERT_EQ(env.toMem.size(), 1u); // one fetch
    EXPECT_EQ(slice.stats().mshrMerges, 2u);
    Packet fill = env.toMem[0];
    fill.kind = PacketKind::Response;
    fill.dataFromMem = true;
    fill.dataChip = 0;
    slice.pushFill(fill);
    runTicks(slice, env, 3, 6);
    EXPECT_EQ(env.toCluster.size(), 3u);
}

TEST(LlcSlice, MshrFullStallsHeadOfLine)
{
    MockEnv env;
    LlcSlice slice(cfg(), 0); // 4 MSHRs
    for (int i = 0; i < 6; ++i)
        slice.inQueue().push(localRead(0x1000 + 0x80ull * i, 0), 0);
    runTicks(slice, env, 0, 5);
    EXPECT_EQ(env.toMem.size(), 4u);
    EXPECT_GT(slice.stats().stallsMshrFull, 0u);
    EXPECT_EQ(slice.inQueued(), 2u);
}

TEST(LlcSlice, ResidentLineServedWhileMshrsFull)
{
    MockEnv env;
    LlcSlice slice(cfg(), 0); // 4 MSHRs
    slice.cache().insert(0x7000, 0, 0, false, partitionLocal);
    for (int i = 0; i < 4; ++i)
        slice.inQueue().push(localRead(0x1000 + 0x80ull * i, 0), 0);
    slice.inQueue().push(localRead(0x7000, 0), 0);
    runTicks(slice, env, 0, 3);
    EXPECT_EQ(slice.mshrsInUse(), 4u);
    // The hit behind a full MSHR file is neither stalled nor fetched.
    EXPECT_EQ(env.toMem.size(), 4u);
    EXPECT_EQ(slice.stats().stallsMshrFull, 0u);
    EXPECT_EQ(slice.stats().hits, 1u);
    EXPECT_EQ(slice.inQueued(), 0u);
    ASSERT_EQ(env.toCluster.size(), 1u);
    EXPECT_EQ(env.toCluster[0].lineAddr, 0x7000u);
}

TEST(LlcSlice, MemBackpressureQueuesMisses)
{
    MockEnv env;
    env.memAccepts = false;
    LlcSlice slice(cfg(), 0);
    slice.inQueue().push(localRead(0x5000, 0), 0);
    runTicks(slice, env, 0, 3);
    EXPECT_TRUE(env.toMem.empty());
    EXPECT_EQ(slice.missQueued(), 1u);
    env.memAccepts = true;
    runTicks(slice, env, 3, 5);
    EXPECT_EQ(env.toMem.size(), 1u);
}

TEST(LlcSlice, WriteHitMarksDirtyAndAcks)
{
    MockEnv env;
    LlcSlice slice(cfg(), 0);
    slice.cache().insert(0x6000, 0, 0, false, partitionLocal);
    Packet p = localRead(0x6000, 0);
    p.type = AccessType::Write;
    slice.inQueue().push(p, 0);
    runTicks(slice, env, 0, 3);
    ASSERT_EQ(env.toCluster.size(), 1u);
    EXPECT_EQ(env.toCluster[0].bytes, 8u); // small ack
    EXPECT_EQ(slice.cache().dirtyLines(), 1u);
    ASSERT_EQ(env.writes.size(), 1u);
    EXPECT_EQ(env.writes[0].first, 0x6000u);
}

TEST(LlcSlice, DirtyRemoteEvictionWritesBackAcrossChips)
{
    GpuConfig c = cfg();
    // Tiny cache: 2 sets x 2 ways per slice to force evictions fast.
    c.llcBytesPerChip = 2048;
    c.llcWays = 2;
    c.slicesPerChip = 4;
    MockEnv env;
    LlcSlice slice(c, 0);
    // Insert dirty remote lines until something dirty is evicted.
    bool saw_remote_writeback = false;
    for (int i = 0; i < 64 && !saw_remote_writeback; ++i) {
        Packet fillp = localRead(0x8000 + 0x80ull * i, /*home=*/3);
        fillp.kind = PacketKind::Response;
        fillp.type = AccessType::Write;
        fillp.dataFromMem = true;
        fillp.dataChip = 3;
        // Register as a miss first so the fill has a target.
        Packet req = localRead(0x8000 + 0x80ull * i, 3);
        req.type = AccessType::Write;
        slice.inQueue().push(req, 0);
        runTicks(slice, env, 0, 2);
        slice.pushFill(fillp);
        runTicks(slice, env, 2, 4);
        for (const auto &pkt : env.toIcn) {
            if (pkt.kind == PacketKind::Writeback) {
                saw_remote_writeback = true;
                EXPECT_TRUE(pkt.bypassLlc);
                EXPECT_EQ(pkt.nocDst, 3);
            }
        }
    }
    EXPECT_TRUE(saw_remote_writeback);
}

TEST(LlcSlice, ReplicaFillRegistersInDirectory)
{
    MockEnv env;
    LlcSlice slice(cfg(), 0);
    Packet req = localRead(0x9000, /*home=*/1); // SM-side remote
    slice.inQueue().push(req, 0);
    runTicks(slice, env, 0, 2);
    Packet fill = env.toIcn[0]; // the bypass fetch
    fill.kind = PacketKind::Response;
    fill.bypassLlc = false;
    fill.dataFromMem = true;
    fill.dataChip = 1;
    slice.pushFill(fill);
    runTicks(slice, env, 2, 4);
    ASSERT_EQ(env.fills.size(), 1u);
    EXPECT_EQ(env.fills[0].first, 0x9000u);
    EXPECT_EQ(env.fills[0].second, 0); // replica lives on chip 0
    // Response origin is the remote memory partition.
    ASSERT_EQ(env.toCluster.size(), 1u);
    EXPECT_EQ(env.toCluster[0].origin, ResponseOrigin::RemoteMem);
}

} // namespace
} // namespace sac
