#include "llc/llc_slice.hh"

#include <algorithm>
#include <utility>

#include "common/log.hh"

namespace sac {

namespace {

/** Classifies a response origin relative to the requesting chip. */
ResponseOrigin
classifyOrigin(bool from_mem, ChipId data_chip, ChipId requester)
{
    if (from_mem) {
        return data_chip == requester ? ResponseOrigin::LocalMem
                                      : ResponseOrigin::RemoteMem;
    }
    return data_chip == requester ? ResponseOrigin::LocalLlc
                                  : ResponseOrigin::RemoteLlc;
}

constexpr unsigned ackBytes = 8;

} // namespace

LlcSlice::LlcSlice(const GpuConfig &cfg, ChipId chip, int index)
    : chip_(chip),
      index_(index),
      lineBytes(cfg.lineBytes),
      sectorBytes(cfg.lineBytes / cfg.sectorsPerLine),
      requestBytes(cfg.requestBytes),
      arrayBw(cfg.sliceBw),
      inQ(cfg.xbarPortBw, cfg.xbarLatency),
      vcQ(cfg.xbarPortBw, cfg.xbarLatency),
      mshrs(static_cast<std::size_t>(cfg.sliceMshrs)),
      homeMshrs(static_cast<std::size_t>(cfg.sliceMshrs)),
      array(cfg.llcBytesPerSlice(), cfg.llcWays, cfg.lineBytes,
            cfg.sectorsPerLine)
{
}

void
LlcSlice::pushFill(const Packet &pkt)
{
    fillQ.push_back(pkt);
}

void
LlcSlice::tick(Cycle now, SliceEnv &env)
{
    budget = std::min(budget + arrayBw, 2.0 * arrayBw);
    inQ.beginCycle();
    vcQ.beginCycle();

    // Retry misses that found the memory-controller queue full.
    drainMissQ(now, env);

    // Fills first: they free MSHRs and wake the most waiters.
    while (budget > 0.0 && !fillQ.empty()) {
        Packet pkt = fillQ.front();
        fillQ.pop_front();
        processFill(pkt, now, env);
    }

    // Second virtual channel: home-level lookups, bypass traffic and
    // incoming writebacks. These depend only on local memory below,
    // so servicing them before (and independently of) first-level
    // requests keeps the inter-chip protocol deadlock-free.
    while (budget > 0.0) {
        const Packet *head = vcQ.peekReady(now);
        if (!head)
            break;
        if (head->kind == PacketKind::Request && !head->bypassLlc &&
            missWouldStall(homeMshrs, *head)) {
            ++stats_.stallsMshrFull;
            break;
        }
        Packet pkt = *head;
        vcQ.popHead();
        if (pkt.bypassLlc) {
            // SAC bypass path: straight to the memory-controller queue,
            // shared with local misses (Section 3.1). No array access.
            ++stats_.bypasses;
            if (pkt.kind == PacketKind::Writeback)
                ++stats_.writebacks;
            if (env.memCanAccept(pkt.lineAddr)) {
                env.memPush(pkt);
            } else {
                missQ.push_back(pkt);
            }
            continue;
        }
        if (pkt.kind == PacketKind::Writeback) {
            ++stats_.writebacks;
            if (env.memCanAccept(pkt.lineAddr)) {
                env.memPush(pkt);
            } else {
                missQ.push_back(pkt);
            }
            continue;
        }
        SAC_ASSERT(pkt.atHome, "first-level request on the home VC");
        processRequest(pkt, now, env);
    }

    // First-level requests from the crossbar port.
    while (budget > 0.0) {
        const Packet *head = inQ.peekReady(now);
        if (!head)
            break;
        SAC_ASSERT(head->kind == PacketKind::Request && !head->bypassLlc &&
                   !head->atHome,
                   "unexpected packet kind in slice request queue");
        // Head-of-line stall when a fresh miss cannot get an MSHR.
        if (missWouldStall(mshrs, *head)) {
            ++stats_.stallsMshrFull;
            break;
        }
        Packet pkt = *head;
        inQ.popHead();
        processRequest(pkt, now, env);
    }
}

bool
LlcSlice::missWouldStall(const MshrFile &file, const Packet &head) const
{
    // The array probe is the costly test and only matters once the
    // file is full; every test is side-effect free, so the order is
    // invisible to the simulation.
    return file.full() && !file.has(head.lineAddr, head.sector) &&
           !array.probe(head.lineAddr, head.sector);
}

void
LlcSlice::processRequest(Packet pkt, Cycle now, SliceEnv &env)
{
    ++stats_.requests;
    const auto stream = static_cast<std::size_t>(pkt.stream);
    SAC_ASSERT(stream < streamReq_.size(), "request of stream ", pkt.stream,
               " outside the slice's ", streamReq_.size(), " streams");
    ++streamReq_[stream];
    const bool apply_write = pkt.type == AccessType::Write && !pkt.atHome;
    const auto res = array.access(pkt.lineAddr, pkt.sector, apply_write);

    if (res.hit) {
        ++stats_.hits;
        ++streamHits_[stream];
        if (pkt.remoteTo(chip_))
            ++stats_.hitsFromRemote;
        budget -= static_cast<double>(sectorBytes);
        if (apply_write)
            env.coherentWrite(pkt, chip_);

        Packet resp = pkt;
        resp.kind = PacketKind::Response;
        resp.dataFromMem = false;
        resp.dataChip = chip_;
        if (pkt.atHome) {
            // Home-level hit of a partitioned lookup: carry the data
            // to the requester-side slice for its remote-partition fill.
            resp.homeFilled = true;
            resp.bytes = sectorBytes;
            env.sendToChip(pkt.serveChip, resp);
        } else {
            resp.serveFilled = true;
            resp.bytes = pkt.type == AccessType::Write ? ackBytes
                                                       : sectorBytes;
            resp.origin = classifyOrigin(false, chip_, pkt.srcChip);
            respond(std::move(resp), env);
        }
        return;
    }

    if (res.sectorMiss)
        ++stats_.sectorMisses;
    ++stats_.misses;
    budget -= static_cast<double>(requestBytes);

    const auto outcome =
        pkt.atHome ? homeMshrs.allocate(pkt) : mshrs.allocate(pkt);
    SAC_ASSERT(outcome != MshrFile::Outcome::Full,
               "miss admitted past a full MSHR file");
    if (outcome == MshrFile::Outcome::Merged) {
        ++stats_.mshrMerges;
        return;
    }
    forwardMiss(pkt, now, env);
}

void
LlcSlice::forwardMiss(Packet pkt, Cycle now, SliceEnv &env)
{
    (void)now;
    Packet req = pkt;
    req.bytes = requestBytes;
    if (pkt.homeChip == chip_) {
        // Fetch from the local memory partition (SL/ML and the home
        // level of partitioned lookups).
        if (env.memCanAccept(req.lineAddr)) {
            env.memPush(req);
        } else {
            missQ.push_back(req);
        }
        return;
    }
    SAC_ASSERT(!pkt.atHome, "home-level miss on a non-home chip");
    if (pkt.homeLookup) {
        // Partitioned organizations: try the home chip's slice next.
        req.atHome = true;
        env.sendToChip(pkt.homeChip, req);
    } else {
        // SM-side remote miss: bypass the home LLC (Fig. 6 step 4).
        req.bypassLlc = true;
        env.sendToChip(pkt.homeChip, req);
    }
}

void
LlcSlice::drainMissQ(Cycle now, SliceEnv &env)
{
    (void)now;
    while (!missQ.empty() && env.memCanAccept(missQ.front().lineAddr)) {
        env.memPush(missQ.front());
        missQ.pop_front();
    }
}

void
LlcSlice::emitWriteback(Addr line_addr, ChipId home, Cycle now,
                        SliceEnv &env)
{
    (void)now;
    ++stats_.writebacks;
    Packet wb;
    wb.kind = PacketKind::Writeback;
    wb.type = AccessType::Write;
    wb.lineAddr = line_addr;
    wb.homeChip = home;
    wb.srcChip = chip_;
    wb.bytes = lineBytes;
    if (home == chip_) {
        if (env.memCanAccept(line_addr)) {
            env.memPush(wb);
        } else {
            missQ.push_back(wb);
        }
    } else {
        // Dirty replica of remote data: write back across the
        // inter-chip network, bypassing the home LLC.
        wb.bypassLlc = true;
        env.sendToChip(home, wb);
    }
}

void
LlcSlice::processFill(const Packet &pkt, Cycle now, SliceEnv &env)
{
    ++stats_.fills;
    budget -= static_cast<double>(sectorBytes);

    // A fill with atHome set and homeFilled clear is the home level of
    // a partitioned lookup; once homeFilled is set the same packet is
    // filling the requester-side slice.
    const bool home_level = pkt.atHome && !pkt.homeFilled;
    const int partition = home_level ? pkt.homeAllocPartition
                                     : pkt.allocPartition;
    const auto evict =
        array.insert(pkt.lineAddr, pkt.sector, pkt.homeChip,
                     /*dirty=*/false, partition);
    if (evict.evicted) {
        if (evict.home != chip_)
            env.directoryEvict(evict.lineAddr, chip_);
        if (evict.dirty)
            emitWriteback(evict.lineAddr, evict.home, now, env);
    }
    if (pkt.homeChip != chip_)
        env.directoryFill(pkt.lineAddr, chip_);

    fillTargets_.clear();
    if (home_level) {
        homeMshrs.complete(pkt.lineAddr, pkt.sector, fillTargets_);
    } else {
        mshrs.complete(pkt.lineAddr, pkt.sector, fillTargets_);
    }
    for (auto &t : fillTargets_) {
        Packet resp = t;
        resp.kind = PacketKind::Response;
        resp.dataFromMem = pkt.dataFromMem;
        resp.dataChip = pkt.dataChip;
        if (t.atHome) {
            // This is the home slice completing a partitioned lookup:
            // forward the data to the requester-side slice.
            resp.homeFilled = true;
            resp.bytes = sectorBytes;
            env.sendToChip(t.serveChip, resp);
            continue;
        }
        resp.serveFilled = true;
        if (t.type == AccessType::Write) {
            array.access(pkt.lineAddr, pkt.sector, /*is_write=*/true);
            env.coherentWrite(t, chip_);
            resp.bytes = ackBytes;
        } else {
            resp.bytes = sectorBytes;
        }
        resp.origin = classifyOrigin(resp.dataFromMem, resp.dataChip,
                                     t.srcChip);
        respond(std::move(resp), env);
    }
}

void
LlcSlice::respond(Packet resp, SliceEnv &env)
{
    if (resp.srcChip == chip_) {
        env.respondCluster(resp);
    } else {
        env.sendToChip(resp.srcChip, resp);
    }
}

} // namespace sac
