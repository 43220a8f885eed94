/**
 * @file
 * Sectored-cache behaviour at the LLC slice (the Fig. 14 "sectored
 * cache" design point): sector misses fetch only their sector, tag
 * sharing works, and the CRD's per-sector bits line up.
 */

#include <gtest/gtest.h>

#include <deque>

#include "common/config.hh"
#include "llc/llc_slice.hh"

namespace sac {
namespace {

class SectorEnv : public SliceEnv
{
  public:
    bool memCanAccept(Addr) const override { return true; }
    void memPush(const Packet &pkt) override { toMem.push_back(pkt); }
    void sendToChip(ChipId dst, Packet pkt) override
    {
        pkt.nocDst = dst;
        toIcn.push_back(pkt);
    }
    void respondCluster(Packet pkt) override { toCluster.push_back(pkt); }
    void directoryFill(Addr, ChipId) override {}
    void directoryEvict(Addr, ChipId) override {}
    void coherentWrite(const Packet &, ChipId) override {}

    std::deque<Packet> toMem;
    std::deque<Packet> toIcn;
    std::deque<Packet> toCluster;
};

GpuConfig
cfg()
{
    GpuConfig c = GpuConfig::scaled(4);
    c.sectorsPerLine = 4;
    c.xbarLatency = 0;
    return c;
}

Packet
read(Addr line, unsigned sector)
{
    Packet p;
    p.kind = PacketKind::Request;
    p.type = AccessType::Read;
    p.lineAddr = line;
    p.sector = static_cast<std::uint8_t>(sector);
    p.srcChip = 0;
    p.srcCluster = 0;
    p.warp = 0;
    p.homeChip = 0;
    p.serveChip = 0;
    p.slice = 0;
    p.bytes = 32;
    return p;
}

void
ticks(LlcSlice &slice, SectorEnv &env, Cycle from, Cycle to)
{
    for (Cycle t = from; t < to; ++t)
        slice.tick(t, env);
}

TEST(SectoredSlice, SectorMissFetchesOnlyThatSector)
{
    SectorEnv env;
    LlcSlice slice(cfg(), 0);
    slice.inQueue().push(read(0x1000, 1), 0);
    ticks(slice, env, 0, 3);
    ASSERT_EQ(env.toMem.size(), 1u);
    Packet fill = env.toMem[0];
    fill.kind = PacketKind::Response;
    fill.dataFromMem = true;
    fill.dataChip = 0;
    slice.pushFill(fill);
    ticks(slice, env, 3, 6);
    ASSERT_EQ(env.toCluster.size(), 1u);
    EXPECT_EQ(env.toCluster[0].bytes, 32u); // one 32-byte sector

    // Same sector now hits; a different sector of the same line is a
    // sector miss (tag shared, data absent).
    slice.inQueue().push(read(0x1000, 1), 6);
    slice.inQueue().push(read(0x1000, 3), 6);
    ticks(slice, env, 6, 9);
    EXPECT_EQ(slice.stats().hits, 1u);
    EXPECT_EQ(slice.stats().sectorMisses, 1u);
    ASSERT_EQ(env.toMem.size(), 2u);
    EXPECT_EQ(env.toMem[1].sector, 3);
}

TEST(SectoredSlice, SectorFillCompletesWithoutEviction)
{
    SectorEnv env;
    LlcSlice slice(cfg(), 0);
    // Bring in two sectors of the same line back to back.
    for (unsigned s : {0u, 2u}) {
        slice.inQueue().push(read(0x2000, s), 0);
        ticks(slice, env, 0, 2);
        Packet fill = env.toMem.back();
        fill.kind = PacketKind::Response;
        fill.dataFromMem = true;
        fill.dataChip = 0;
        slice.pushFill(fill);
        ticks(slice, env, 2, 4);
    }
    EXPECT_EQ(slice.cache().validLines(), 1u); // one line, two sectors
    EXPECT_TRUE(slice.cache().probe(0x2000, 0));
    EXPECT_TRUE(slice.cache().probe(0x2000, 2));
    EXPECT_FALSE(slice.cache().probe(0x2000, 1));
}

TEST(SectoredSlice, DifferentSectorsHaveIndependentMshrs)
{
    SectorEnv env;
    LlcSlice slice(cfg(), 0);
    slice.inQueue().push(read(0x3000, 0), 0);
    slice.inQueue().push(read(0x3000, 1), 0);
    ticks(slice, env, 0, 3);
    // Two distinct fetches, no merging across sectors.
    EXPECT_EQ(env.toMem.size(), 2u);
    EXPECT_EQ(slice.stats().mshrMerges, 0u);
}

} // namespace
} // namespace sac
