#include "sim/system.hh"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/log.hh"
#include "llc/flush_model.hh"
#include "noc/routing.hh"
#include "sim/plan.hh"
#include "workload/scenario.hh"

namespace sac {

const char *
toString(RunStatus status)
{
    switch (status) {
      case RunStatus::Ok: return "ok";
      case RunStatus::Failed: return "failed";
      case RunStatus::TimedOut: return "timed_out";
      case RunStatus::Livelocked: return "livelocked";
    }
    return "failed";
}

RunStatus
runStatusFromName(const std::string &name)
{
    for (const auto s : {RunStatus::Ok, RunStatus::Failed,
                         RunStatus::TimedOut, RunStatus::Livelocked}) {
        if (name == toString(s))
            return s;
    }
    invalid("RunStatus", "unknown status '", name, "'");
}

namespace {

constexpr unsigned invalidateBytes = 16;

} // namespace

/**
 * One-shot deterministic fault injection (System::setFaultHook).
 * First in the poll order so a fault lands before any bookkeeping
 * runs at its cycle, and its armed cycle participates in the wake so
 * it fires cycle-exactly under fast-forward.
 */
class System::FaultHookService final : public RunService
{
  public:
    explicit FaultHookService(System &sys) : sys_(sys) {}

    const char *name() const override { return "fault-hook"; }

    Cycle nextDue(Cycle) const override { return sys_.faultAt_; }

    void
    poll(const TickInfo &tick) override
    {
        if (sys_.faultAt_ == cycleNever || tick.now < sys_.faultAt_)
            return;
        // Disarm before firing so a throwing hook cannot re-fire.
        sys_.faultAt_ = cycleNever;
        auto fn = std::move(sys_.faultFn_);
        sys_.faultFn_ = nullptr;
        if (fn) {
            fn(sys_);
            // The hook may have mutated anything; one all-due cycle
            // re-establishes exact wake keys.
            sys_.sched_.wakeAll(tick.now);
        }
    }

  private:
    System &sys_;
};

/**
 * The inter-chip network as one schedulable unit: credit refill, link
 * movement and arrival dispatch (reference phases 1+2).
 */
class System::NetUnit final : public sim::Component
{
  public:
    explicit NetUnit(System &sys) : sys_(sys) {}

    const char *name() const override { return "icn"; }

    void tick(Cycle now) override { sys_.tickNetwork(now); }

    Cycle
    nextEventCycle(Cycle now) const override
    {
        return sys_.icn.nextEventCycle(now);
    }

    void
    skipIdleCycles(Cycle cycles) override
    {
        sys_.icn.skipIdleCycles(cycles);
    }

  private:
    System &sys_;
};

/** Telemetry epoch sampling; registered only by enableTelemetry(). */
class System::SamplerService final : public RunService
{
  public:
    explicit SamplerService(System &sys) : sys_(sys) {}

    const char *name() const override { return "telemetry-sampler"; }

    Cycle nextDue(Cycle) const override { return sys_.sampler_->nextDue(); }

    void
    poll(const TickInfo &tick) override
    {
        if (sys_.sampler_->due(tick.now)) {
            sys_.sampler_->sample(sys_.counterTotals(), tick.now,
                                  tick.kernel, sys_.currentModeName());
        }
    }

  private:
    System &sys_;
};

/** Dynamic-LLC epoch repartitioning; registered when dynCtrl exists. */
class System::DynamicEpochService final : public RunService
{
  public:
    explicit DynamicEpochService(System &sys) : sys_(sys) {}

    const char *name() const override { return "dynamic-epoch"; }

    Cycle
    nextDue(Cycle) const override
    {
        return sys_.lastEpoch + sys_.dynCtrl->epoch();
    }

    void
    poll(const TickInfo &tick) override
    {
        if (tick.now - sys_.lastEpoch >= sys_.dynCtrl->epoch())
            sys_.dynamicEpochUpdate();
    }

  private:
    System &sys_;
};

/** Fig. 9 remote-occupancy sampling at cfg.occupancyInterval. */
class System::OccupancyService final : public RunService
{
  public:
    explicit OccupancyService(System &sys) : sys_(sys) {}

    const char *name() const override { return "occupancy-sampler"; }

    Cycle
    nextDue(Cycle) const override
    {
        return sys_.lastOccupancySample + sys_.cfg_.occupancyInterval;
    }

    void
    poll(const TickInfo &tick) override
    {
        if (tick.now - sys_.lastOccupancySample >=
            sys_.cfg_.occupancyInterval) {
            sys_.sampleOccupancy();
        }
    }

  private:
    System &sys_;
};

System::System(const GpuConfig &cfg, OrgKind kind, TraceSource &trace)
    : cfg_(cfg),
      map(cfg.slicesPerChip, cfg.channelsPerChip, cfg.lineBytes),
      pages(cfg.pageBytes, cfg.numChips),
      trace_(trace),
      org(Organization::make(kind)),
      coherence(cfg.coherence, cfg.numChips),
      icn(cfg.numChips, cfg.interChipBw, cfg.interChipLatency),
      chipDramSnapshot(static_cast<std::size_t>(cfg.numChips), 0),
      chipIcnInBytes(static_cast<std::size_t>(cfg.numChips), 0),
      chipIcnSnapshot(static_cast<std::size_t>(cfg.numChips), 0)
{
    cfg_.validate();

    if (kind == OrgKind::Sac)
        sacOrg = static_cast<SacOrg *>(org.get());
    if (org->dynamicPartitioning()) {
        dynCtrl = std::make_unique<DynamicPartitionController>(
            cfg_.dynamicLlc, cfg_.numChips, cfg_.llcWays);
    }

    chips.reserve(static_cast<std::size_t>(cfg_.numChips));
    for (ChipId c = 0; c < cfg_.numChips; ++c)
        chips.push_back(std::make_unique<Chip>(cfg_, map, c, trace_, *this));

    const int split = org->initialWaySplit(cfg_.llcWays);
    for (auto &chip : chips) {
        chip->setWaySplit(split);
        chip->setDirectBypass(org->separateRemoteNoc());
    }

    // Component registration: ordinal == reference phase order, and
    // the reference loop runs each phase across all chips before the
    // next, so the passes go phase-major (all clusters, the network,
    // all slices, all memory pipelines).
    for (auto &chip : chips)
        chip->registerClusterComponents(sched_, *this);
    netUnit_ = std::make_unique<NetUnit>(*this);
    netId_ = sched_.add(*netUnit_);
    for (auto &chip : chips)
        chip->registerSliceComponents(sched_);
    for (auto &chip : chips)
        chip->registerMemoryComponent(sched_);

    result.organization = org->name();

    // The run-loop schedule: every periodic concern registers here
    // exactly once; run() polls the registry and nextWakeCycle()
    // derives every control deadline from it. The sampler joins in
    // enableTelemetry() — phase ordering puts it in the right slot
    // even though it registers last.
    faultSvc_ = std::make_unique<FaultHookService>(*this);
    services_.add(RunPhase::FaultHook, *faultSvc_);
    if (sacOrg) {
        sacSvc_ = std::make_unique<TenantSacService>(cfg_, *sacOrg, *this);
        services_.add(RunPhase::SacWindow, *sacSvc_);
    }
    if (dynCtrl) {
        epochSvc_ = std::make_unique<DynamicEpochService>(*this);
        services_.add(RunPhase::DynamicEpoch, *epochSvc_);
    }
    occupancySvc_ = std::make_unique<OccupancyService>(*this);
    services_.add(RunPhase::Occupancy, *occupancySvc_);

    const DigestFn digest = [this] { return occupancyDigest(); };
    livelockDog_ = std::make_unique<LivelockWatchdog>(limits_, digest);
    cycleDog_ = std::make_unique<CycleDeadlineWatchdog>(limits_, digest);
    cancelDog_ = std::make_unique<CancelWatchdog>(limits_, digest);
    services_.add(RunPhase::Watchdog, *livelockDog_);
    services_.add(RunPhase::Watchdog, *cycleDog_);
    services_.add(RunPhase::Watchdog, *cancelDog_);
}

System::~System() = default;

void
System::enableTelemetry(const telemetry::Options &opts)
{
    SAC_ASSERT(clock == 0, "enableTelemetry() must precede run()");
    telemetryOpts_ = opts;
    if (opts.epoch > 0) {
        sampler_ = std::make_unique<telemetry::Sampler>(opts.epoch,
                                                        cfg_.interChipBw);
        samplerSvc_ = std::make_unique<SamplerService>(*this);
        services_.add(RunPhase::Telemetry, *samplerSvc_);
    }
    if (opts.events)
        eventTrace_ = std::make_unique<telemetry::EventTrace>();
}

telemetry::Counters
System::counterTotals() const
{
    telemetry::Counters t;
    const auto [req, hits] = llcTotals();
    t.llcRequests = req;
    t.llcHits = hits;
    const auto origin = [&](ResponseOrigin o) {
        return respByOrigin[static_cast<std::size_t>(o)];
    };
    t.respLocalLlc = origin(ResponseOrigin::LocalLlc);
    t.respRemoteLlc = origin(ResponseOrigin::RemoteLlc);
    t.respLocalMem = origin(ResponseOrigin::LocalMem);
    t.respRemoteMem = origin(ResponseOrigin::RemoteMem);
    t.icnBytes = icn.bytesTransferred();
    t.icnBySrc = icn.bytesBySource();
    for (const auto &chip : chips)
        t.dramBytes += chip->memCtrl().bytesServed();
    return t;
}

std::string
System::currentModeName() const
{
    return sacOrg ? toString(sacOrg->mode()) : org->name();
}

void
System::setFaultHook(Cycle at, std::function<void(System &)> fn)
{
    faultAt_ = at;
    faultFn_ = std::move(fn);
    // The cached service wake predates this deadline.
    svcWakeValid_ = false;
}

std::string
System::occupancyDigest() const
{
    std::ostringstream os;
    os << "occupancy digest @ cycle " << clock << ", kernel "
       << currentKernel << ", org " << org->name() << ", mode "
       << currentModeName() << "\n";

    const telemetry::Counters t = counterTotals();
    os << "  counters: llcRequests=" << t.llcRequests
       << " llcHits=" << t.llcHits << " icnBytes=" << t.icnBytes
       << " dramBytes=" << t.dramBytes << "\n";

    for (const auto &chip : chips) {
        os << "  chip" << chip->id()
           << ": outstanding=" << chip->outstanding()
           << " memInFlight=" << chip->memCtrl().inFlight();
        std::size_t mshrs = 0;
        std::size_t miss_q = 0;
        std::size_t fill_q = 0;
        std::size_t in_q = 0;
        for (int s = 0; s < chip->numSlices(); ++s) {
            const auto &slice = chip->slice(s);
            mshrs += slice.mshrsInUse();
            miss_q += slice.missQueued();
            fill_q += slice.fillQueued();
            in_q += slice.inQueued();
        }
        os << " sliceMshrs=" << mshrs << " missQ=" << miss_q
           << " fillQ=" << fill_q << " inQ=" << in_q;
        int blocked = 0;
        int done = 0;
        for (int c = 0; c < chip->numClusters(); ++c) {
            // A cluster still holding outstanding warp loads while
            // the chip makes no progress is the livelock signature.
            if (chip->cluster(c).done())
                ++done;
            else
                ++blocked;
        }
        os << " clusters(done=" << done << ", active=" << blocked << ")\n";
    }
    return os.str();
}

void
System::injectMiss(Packet &&pkt, Cycle now)
{
    const ChipId home = pages.touch(pkt.lineAddr, pkt.srcChip);
    pkt.homeChip = home;

    const RoutePlan plan =
        org->routing().route(pkt.lineAddr, pkt.srcChip, home, map);
    applyRoute(pkt, plan);

    if (sacSvc_) {
        // The miss profiles into its own stream's window (a no-op
        // while that window is closed).
        sacSvc_->onL1Miss(pkt.stream, pkt.srcChip, home, plan.slice,
                          pkt.lineAddr, pkt.sector);
    }

    if (pkt.serveChip == pkt.srcChip) {
        chips[static_cast<std::size_t>(pkt.srcChip)]->pushLocalRequest(
            pkt, now);
    } else {
        icnSend(pkt.srcChip, pkt.serveChip, pkt);
    }
}

void
System::icnSend(ChipId src, ChipId dst, Packet pkt)
{
    chipIcnInBytes[static_cast<std::size_t>(dst)] += pkt.bytes;
    icn.send(src, dst, std::move(pkt), clock);
    // At most one spurious network tick: the network re-keys itself
    // to the packet's actual movement cycle after it.
    sched_.wake(netId_, clock);
}

void
System::handleWrite(const Packet &pkt, ChipId writer)
{
    if (!org->cachesRemoteData())
        return;
    // Software coherence defers everything to kernel-boundary flushes.
    for (const ChipId target :
         coherence.invalidationTargets(pkt.lineAddr, writer)) {
        Packet inv;
        inv.kind = PacketKind::Invalidate;
        inv.lineAddr = pkt.lineAddr;
        inv.srcChip = writer;
        inv.homeChip = pkt.homeChip;
        inv.bytes = invalidateBytes;
        if (target == writer)
            continue;
        icnSend(writer, target, inv);
    }
}

void
System::replicaAdded(Addr line_addr, ChipId chip)
{
    if (coherence.kind() == CoherenceKind::Hardware)
        coherence.directory().addSharer(line_addr, chip);
}

void
System::replicaRemoved(Addr line_addr, ChipId chip)
{
    if (coherence.kind() == CoherenceKind::Hardware)
        coherence.directory().removeSharer(line_addr, chip);
}

void
System::countResponse(const Packet &pkt)
{
    ++respByOrigin[static_cast<std::size_t>(pkt.origin)];
}

void
System::tick()
{
    icn.beginCycle();

    // 1. SMs issue (into local slice ports or the inter-chip net).
    for (auto &chip : chips)
        chip->tickClusters(clock, *this);

    // 2. Inter-chip movement, then arrival dispatch.
    icn.tick(clock);
    Packet pkt;
    for (auto &chip : chips) {
        while (icn.receive(chip->id(), pkt, clock))
            chip->acceptIcnArrival(pkt, clock);
    }

    // 3. LLC slices, then memory.
    for (auto &chip : chips)
        chip->tickSlices(clock);
    for (auto &chip : chips)
        chip->tickMemory(clock);

    // Everything was ticked (and so refilled) this cycle; keep the
    // scheduler's per-component replay bookkeeping in step for runs
    // that mix tick() and advance().
    sched_.onFullTick(clock);
    ++clock;
}

void
System::tickNetwork(Cycle now)
{
    icn.beginCycle();
    icn.tick(now);
    Packet pkt;
    for (auto &chip : chips) {
        while (icn.receive(chip->id(), pkt, now))
            chip->acceptIcnArrival(pkt, now);
    }
}

void
System::advance()
{
    lastAdvanceSkipped_ = false;
    if (!fastForward_) {
        tick();
        return;
    }

    // Event-driven cycle: jump to the earliest component or run-loop
    // deadline, then tick only the due components. The registry feeds
    // the same wake computation the loop polls, so a control check
    // fires at the same simulated cycle with fast-forward on or off.
    // The livelock watchdog's deadline bounds the target even when
    // every component reports cycleNever, so a wedged system aborts
    // at the exact cycle it would have in the per-cycle loop. run()
    // refreshes the cached service wake on every poll; outside run()
    // (or after a setter re-arms a service) it is recomputed here.
    if (!svcWakeValid_) {
        svcWake_ = services_.nextWake(clock);
        svcWakeValid_ = true;
    }
    const Cycle due = std::min(sched_.nextDue(), svcWake_);
    if (due > clock) {
        ++ffStats_.skips;
        ffStats_.skippedCycles += due - clock;
        clock = due;
        lastAdvanceSkipped_ = true;
    }
    sched_.runCycle(clock);
    ++clock;
}

System::FastForwardStats
System::fastForwardStats() const
{
    FastForwardStats merged = ffStats_;
    const sim::Scheduler::Stats &s = sched_.stats();
    merged.schedCycles = s.cycles;
    merged.heapPops = s.heapPops;
    merged.denseCycles = s.denseCycles;
    merged.denseSpans = s.denseSpans;
    merged.dueHist = s.dueHist;
    return merged;
}

std::pair<std::uint64_t, std::uint64_t>
System::llcTotals() const
{
    std::uint64_t req = 0;
    std::uint64_t hits = 0;
    for (const auto &chip : chips) {
        for (int s = 0; s < chip->numSlices(); ++s) {
            req += chip->slice(s).stats().requests;
            hits += chip->slice(s).stats().hits;
        }
    }
    return {req, hits};
}

std::pair<std::uint64_t, std::uint64_t>
System::streamLlcTotals(int stream) const
{
    std::uint64_t req = 0;
    std::uint64_t hits = 0;
    for (const auto &chip : chips) {
        for (int s = 0; s < chip->numSlices(); ++s) {
            req += chip->slice(s).streamRequests(stream);
            hits += chip->slice(s).streamHits(stream);
        }
    }
    return {req, hits};
}

void
System::tenantWindowClosed(int stream, const SacDecision &d,
                           double hit_rate)
{
    result.sacDecisions.push_back(d);
    streamResults_[static_cast<std::size_t>(stream)].sacDecisions.push_back(
        d);
    if (eventTrace_) {
        eventTrace_->windowClose(
            d.kernel, clock, toString(d.chosen),
            {{"eabMem", d.eab.memSide.total()},
             {"eabSm", d.eab.smSide.total()},
             {"eabMemLocal", d.eab.memSide.local},
             {"eabMemRemote", d.eab.memSide.remote},
             {"eabSmLocal", d.eab.smSide.local},
             {"eabSmRemote", d.eab.smSide.remote},
             {"rLocal", d.inputs.rLocal},
             {"lsuMem", d.inputs.lsuMem},
             {"lsuSm", d.inputs.lsuSm},
             {"hitMem", d.inputs.hitMem},
             {"hitSm", d.inputs.hitSm},
             {"windowHitRate", hit_rate}});
    }
}

void
System::reconfigured(LlcMode to)
{
    ++result.reconfigurations;
    if (eventTrace_)
        eventTrace_->reconfigure(currentKernel, clock, toString(to));
}

void
System::modeChangeFlush(const char *reason)
{
    const Cycle done = flushLlc(/*replicas_only=*/false);
    for (auto &chip : chips)
        chip->pauseClusters(0, cfg_.clustersPerChip, done);
    result.flushStallCycles += done - clock;
    if (eventTrace_)
        eventTrace_->flush(currentKernel, clock, done - clock, reason);
}

Cycle
System::flushLlc(bool replicas_only)
{
    // Classify flushed dirty lines into per-chip writeback and
    // inter-chip byte totals; the pure model computes the envelope.
    flush::FlushTraffic traffic(cfg_.numChips);
    for (auto &chip : chips) {
        const ChipId c = chip->id();
        for (int s = 0; s < chip->numSlices(); ++s) {
            auto &cache = chip->slice(s).cache();
            const auto pred = [&](const CacheLine &line) {
                return !replicas_only || line.home != c;
            };
            cache.flushIf(pred, [&](const CacheLine &line) {
                traffic.addLine(c, line.home, cfg_.lineBytes);
            });
        }
    }

    flush::FlushCosts costs;
    costs.drainLatency = cfg_.sac.drainLatency;
    costs.interChipBw = cfg_.interChipBw;
    costs.interChipLatency = cfg_.interChipLatency;

    // Live adapter: the writeback is a real bandwidth reservation on
    // the home chip's memory controller (flush traffic delays later
    // requests), unlike the closed-form stand-ins tests use.
    struct MemDrain final : flush::MemDrainModel
    {
        System &sys;

        explicit MemDrain(System &s) : sys(s) {}

        Cycle
        occupyBulk(ChipId chip, std::uint64_t bytes, Cycle now) override
        {
            Chip &target = *sys.chips[static_cast<std::size_t>(chip)];
            const Cycle done = target.memCtrl().occupyBulk(bytes, now);
            // The reservation occupies real controller slots; the
            // memory component must run at their drain times so
            // blocked slices see the queue free up on cycle.
            target.wakeMemory(now);
            return done;
        }
    } mem(*this);

    return flush::flushDoneCycle(traffic, costs, clock, mem);
}

void
System::launchStreamKernel(int stream, const KernelDescriptor &kernel,
                           const CtaScheduler::Range &clusters)
{
    trace_.beginStreamKernel(stream, kernel.index);
    for (auto &chip : chips) {
        chip->beginKernel(clusters.first, clusters.count,
                          kernel.accessesPerWarp, clock);
    }
    // The livelock deadline re-arms on any stream's launch.
    livelockDog_->beginKernel(clock);
    svcWakeValid_ = false;

    currentKernel = kernel.index;
    if (eventTrace_)
        eventTrace_->kernelBegin(kernel.index, kernel.name, clock);
    if (sacSvc_)
        sacSvc_->beginStreamKernel(stream, kernel.index, clock);
    if (dynCtrl) {
        // Documented simplification: the dynamic-partition epoch is a
        // machine-wide concern, so any stream's launch resets it.
        dynCtrl->reset();
        for (auto &chip : chips)
            chip->setWaySplit(dynCtrl->localWays(chip->id()));
        lastEpoch = clock;
        for (auto &chip : chips) {
            chipDramSnapshot[static_cast<std::size_t>(chip->id())] =
                chip->memCtrl().bytesServed();
            chipIcnSnapshot[static_cast<std::size_t>(chip->id())] =
                chipIcnInBytes[static_cast<std::size_t>(chip->id())];
        }
    }
}

void
System::finishStreamKernel(int stream, int kernel_index,
                           const CtaScheduler::Range &clusters,
                           Cycle kernel_start)
{
    const Cycle duration = clock - kernel_start;
    if (eventTrace_)
        eventTrace_->kernelEnd(kernel_index, clock, duration);
    streamResults_[static_cast<std::size_t>(stream)].kernelCycles.push_back(
        duration);
    // The flat list keeps completion order across streams (the
    // per-stream split lives in RunResult::streams).
    result.kernelCycles.push_back(duration);

    // The one whole-machine predicate: a stream owning every cluster
    // is the only thing running.
    const bool whole_machine =
        clusters.first == 0 &&
        clusters.count == static_cast<std::uint64_t>(cfg_.clustersPerChip);

    // Software coherence: the finishing stream's L1s flush, and the
    // LLC is flushed when the organization replicated remote data.
    for (auto &chip : chips)
        chip->flushL1s(clusters.first, clusters.count);

    const bool llc_needs_flush = org->cachesRemoteData() &&
                                 coherence.kind() == CoherenceKind::Software;
    if (llc_needs_flush) {
        const bool replicas_only = org->kind() == OrgKind::StaticLlc ||
                                   org->kind() == OrgKind::DynamicLlc;
        const Cycle done = flushLlc(replicas_only);
        result.flushStallCycles += done - clock;
        streamResults_[static_cast<std::size_t>(stream)].flushStallCycles +=
            done - clock;
        if (eventTrace_) {
            eventTrace_->flush(kernel_index, clock, done - clock,
                               "kernel-boundary");
        }
        if (whole_machine) {
            // The reference loop jumps the clock here without ticking
            // anything: exclude the jump from idle-refill replay.
            if (done > clock) {
                sched_.onClockJump(clock, done);
                clock = done;
            }
        } else {
            // Co-resident streams keep running: only the finishing
            // stream's clusters stall for the flush envelope.
            // SmCluster::beginKernel preserves pausedUntil, so the
            // stall survives the follow-on kernel's immediate launch.
            for (auto &chip : chips)
                chip->pauseClusters(clusters.first, clusters.count, done);
        }
    }
    if (sacSvc_)
        sacSvc_->endStreamKernel(stream, whole_machine);
}

void
System::dynamicEpochUpdate()
{
    for (auto &chip : chips) {
        const auto idx = static_cast<std::size_t>(chip->id());
        EpochTraffic traffic;
        traffic.localMemBytes =
            chip->memCtrl().bytesServed() - chipDramSnapshot[idx];
        traffic.interChipBytes = chipIcnInBytes[idx] - chipIcnSnapshot[idx];
        chipDramSnapshot[idx] = chip->memCtrl().bytesServed();
        chipIcnSnapshot[idx] = chipIcnInBytes[idx];
        const int before = dynCtrl->localWays(chip->id());
        const int after = dynCtrl->update(chip->id(), traffic);
        chip->setWaySplit(after);
        if (eventTrace_ && after != before)
            eventTrace_->wayMove(chip->id(), clock, before, after);
    }
    lastEpoch = clock;
}

void
System::sampleOccupancy()
{
    std::uint64_t remote = 0;
    std::uint64_t valid = 0;
    for (const auto &chip : chips) {
        for (int s = 0; s < chip->numSlices(); ++s) {
            const auto &cache = chip->slice(s).cache();
            remote += cache.remoteLines(chip->id());
            valid += cache.validLines();
        }
    }
    if (valid > 0) {
        occupancyRemoteSum +=
            static_cast<double>(remote) / static_cast<double>(valid);
        ++occupancySamples;
    }
    lastOccupancySample = clock;
}

void
System::dumpStats(std::ostream &os) const
{
    // One "path value  # description" line per counter, the path
    // left-justified to 56 columns; lines within a group go in name
    // order, the system group before the chips.
    const auto line = [&os](const std::string &path, std::uint64_t value,
                            const char *desc) {
        os << std::left << std::setw(56) << path << " " << value << "  # "
           << desc << "\n";
    };
    line("system.cycles", clock, "simulated cycles");
    line("system.icnBytes", icn.bytesTransferred(),
         "bytes across inter-chip links");
    line("system.pages", pages.totalPages(), "pages placed by first touch");

    for (const auto &chip : chips) {
        std::uint64_t req = 0;
        std::uint64_t hits = 0;
        std::uint64_t bypasses = 0;
        std::uint64_t writebacks = 0;
        for (int s = 0; s < chip->numSlices(); ++s) {
            const auto &st = chip->slice(s).stats();
            req += st.requests;
            hits += st.hits;
            bypasses += st.bypasses;
            writebacks += st.writebacks;
        }
        std::uint64_t acc = 0;
        std::uint64_t l1h = 0;
        for (int c = 0; c < chip->numClusters(); ++c) {
            acc += chip->cluster(c).stats().accesses;
            l1h += chip->cluster(c).stats().l1Hits;
        }
        const std::string group =
            "system.chip" + std::to_string(chip->id()) + ".";
        line(group + "accesses", acc, "warp memory accesses");
        line(group + "dramBytes", chip->memCtrl().bytesServed(),
             "DRAM bytes served");
        line(group + "l1Hits", l1h, "L1 hits");
        line(group + "llcBypasses", bypasses, "bypass-path packets");
        line(group + "llcHits", hits, "LLC hits");
        line(group + "llcRequests", req, "LLC lookups");
        line(group + "llcWritebacks", writebacks, "dirty writebacks");
    }
}

RunResult
System::run(const std::vector<KernelDescriptor> &kernels)
{
    SAC_ASSERT(!kernels.empty(), "run() needs at least one kernel");

    // The one-stream scenario: launch cycle 0, every cluster.
    std::vector<KernelStreamState> streams(1);
    streams[0].clusters.count =
        static_cast<std::uint64_t>(cfg_.clustersPerChip);
    streams[0].kernels = kernels;
    return runStreams(std::move(streams));
}

RunResult
System::run(const Scenario &scenario)
{
    SAC_ASSERT(!scenario.streams.empty(),
               "run() needs at least one scenario stream");

    std::vector<double> shares;
    shares.reserve(scenario.streams.size());
    for (const auto &s : scenario.streams)
        shares.push_back(s.clusterShare);
    const auto ranges =
        CtaScheduler::partitionClusters(cfg_.clustersPerChip, shares);

    std::vector<KernelStreamState> states(scenario.streams.size());
    for (std::size_t s = 0; s < states.size(); ++s) {
        const StreamSpec &spec = scenario.streams[s];
        auto &state = states[s];
        state.stream = static_cast<int>(s);
        state.launchAt = spec.launchCycle;
        state.clusters = ranges[s];
        state.kernels =
            kernelsFor(spec.profile, spec.numKernels, state.stream);
        state.name = spec.profile.name;
        for (auto &chip : chips)
            chip->setClusterStream(ranges[s].first, ranges[s].count,
                                   state.stream);
    }
    return runStreams(std::move(states));
}

RunResult
System::runStreams(std::vector<KernelStreamState> streams)
{
    const int n = static_cast<int>(streams.size());
    for (auto &chip : chips) {
        for (int sl = 0; sl < chip->numSlices(); ++sl)
            chip->slice(sl).setStreamCount(n);
    }
    if (sacSvc_)
        sacSvc_->reset(n);
    streamResults_.assign(streams.size(), StreamResult{});

    if (!ks_) {
        ks_ = std::make_unique<KernelScheduler>(*this);
        services_.add(RunPhase::KernelFlow, *ks_);
    }
    ks_->reset(std::move(streams));

    cancelDog_->start(cancel_);

    // The loop body is the whole story: advance simulated time, then
    // poll the service registry. Every control concern — fault
    // injection, telemetry, the SAC window, the dynamic-LLC epoch,
    // occupancy sampling, the watchdogs, and kernel flow itself —
    // lives behind the registry, and the same registry feeds
    // nextWakeCycle(), so no deadline exists anywhere else.
    ks_->start(clock);
    TickInfo tick;
    while (!ks_->finished()) {
        advance();
        tick.now = clock;
        tick.fastForwarded = lastAdvanceSkipped_;
        tick.kernel = ks_->currentKernelIndex();
        svcWakeValid_ = true;
        const Cycle wake = services_.poll(tick);
        // A launch inside the kernel-flow poll re-arms services after
        // their nextDue was already read this sweep; it clears
        // svcWakeValid_, and the next advance() recomputes the wake
        // fresh — exactly what the old loop did with launches outside
        // the loop body.
        if (svcWakeValid_)
            svcWake_ = wake;
    }

    // --- final aggregation ------------------------------------------------
    result.cycles = clock;
    const auto [req, hits] = llcTotals();
    result.llcRequests = req;
    result.llcHits = hits;

    std::uint64_t lat_sum = 0;
    std::uint64_t lat_n = 0;
    for (const auto &chip : chips) {
        for (int c = 0; c < chip->numClusters(); ++c) {
            const auto &cs = chip->cluster(c).stats();
            result.accesses += cs.accesses;
            result.l1Hits += cs.l1Hits;
            result.l1Misses += cs.l1Misses;
            lat_sum += cs.loadLatencySum;
            lat_n += cs.loadsCompleted;
        }
        result.dramBytes += chip->memCtrl().bytesServed();
    }
    result.avgLoadLatency =
        lat_n ? static_cast<double>(lat_sum) / static_cast<double>(lat_n)
              : 0.0;
    result.icnBytes = icn.bytesTransferred();
    result.invalidations = coherence.invalidationsSent();

    const double cycles_d = static_cast<double>(std::max<Cycle>(clock, 1));
    const auto origin_count = [&](ResponseOrigin o) {
        return static_cast<double>(
                   respByOrigin[static_cast<std::size_t>(o)]) /
               cycles_d;
    };
    result.bwLocalLlc = origin_count(ResponseOrigin::LocalLlc);
    result.bwRemoteLlc = origin_count(ResponseOrigin::RemoteLlc);
    result.bwLocalMem = origin_count(ResponseOrigin::LocalMem);
    result.bwRemoteMem = origin_count(ResponseOrigin::RemoteMem);
    result.effLlcBw = result.bwLocalLlc + result.bwRemoteLlc +
                      result.bwLocalMem + result.bwRemoteMem;
    result.llcRemoteFraction =
        occupancySamples ? occupancyRemoteSum /
                               static_cast<double>(occupancySamples)
                         : 0.0;

    if (telemetryOpts_.enabled()) {
        telemetry::Timeline t;
        t.epoch = telemetryOpts_.epoch;
        if (sampler_) {
            // Close the partial tail epoch (flush stalls may have
            // advanced the clock past the last sample boundary).
            sampler_->finish(counterTotals(), clock,
                             ks_->currentKernelIndex(), currentModeName());
            t.samples = sampler_->take();
        }
        if (eventTrace_)
            t.events = eventTrace_->take();
        result.timeline = std::move(t);
    }

    if (n > 1) {
        // Per-stream splits: cluster-side counters from each stream's
        // cluster range, LLC counters from the per-slice stream
        // accounting, names and launch/finish cycles from the kernel
        // flow.
        const auto &states = ks_->streams();
        for (std::size_t s = 0; s < streamResults_.size(); ++s) {
            StreamResult &sr = streamResults_[s];
            const auto &range = states[s].clusters;
            sr.stream = states[s].stream;
            sr.name = states[s].name;
            sr.launchCycle = states[s].startedAt;
            sr.finishCycle = states[s].finishedAt;
            std::uint64_t lat_sum = 0;
            std::uint64_t lat_n = 0;
            for (const auto &chip : chips) {
                for (std::uint64_t c = range.first;
                     c < range.first + range.count; ++c) {
                    const auto &cs =
                        chip->cluster(static_cast<ClusterId>(c)).stats();
                    sr.accesses += cs.accesses;
                    sr.l1Hits += cs.l1Hits;
                    sr.l1Misses += cs.l1Misses;
                    lat_sum += cs.loadLatencySum;
                    lat_n += cs.loadsCompleted;
                }
                for (int sl = 0; sl < chip->numSlices(); ++sl) {
                    sr.llcRequests +=
                        chip->slice(sl).streamRequests(static_cast<int>(s));
                    sr.llcHits +=
                        chip->slice(sl).streamHits(static_cast<int>(s));
                }
            }
            sr.avgLoadLatency = lat_n ? static_cast<double>(lat_sum) /
                                            static_cast<double>(lat_n)
                                      : 0.0;
        }
        result.streams = streamResults_;
    }
    return result;
}

} // namespace sac
