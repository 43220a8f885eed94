#include "sim/system.hh"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <tuple>

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

/** The wall budget token's reason: checkCancel() tells a spent wall
 *  budget from a cancelled parent by it. */
const char *const wallBudgetReason = "wall-clock budget spent";

/**
 * Adds the cluster-side counters of @p range on every chip to @p out
 * (a RunResult or a StreamResult) and sets its average load latency
 * from the summed integers.
 */
template <typename Result>
void
sumClusters(const std::vector<std::unique_ptr<Chip>> &chips,
            const ClusterRange &range, Result &out)
{
    std::uint64_t lat_sum = 0;
    std::uint64_t lat_n = 0;
    for (const auto &chip : chips) {
        for (std::uint64_t c = range.first; c < range.first + range.count;
             ++c) {
            const auto &cs = chip->cluster(static_cast<ClusterId>(c)).stats();
            out.accesses += cs.accesses;
            out.l1Hits += cs.l1Hits;
            out.l1Misses += cs.l1Misses;
            lat_sum += cs.loadLatencySum;
            lat_n += cs.loadsCompleted;
        }
    }
    out.avgLoadLatency =
        lat_n ? static_cast<double>(lat_sum) / static_cast<double>(lat_n)
              : 0.0;
}

} // namespace

System::System(const GpuConfig &cfg, OrgKind kind, TraceSource &trace)
    : cfg_(cfg),
      map(cfg.slicesPerChip, cfg.channelsPerChip, cfg.lineBytes),
      pages(cfg.pageBytes, cfg.numChips),
      trace_(trace),
      org(kind),
      coherence(cfg.coherence, cfg.numChips),
      icn(cfg.numChips, cfg.interChipBw, cfg.interChipLatency),
      chipDramSnapshot(static_cast<std::size_t>(cfg.numChips), 0),
      chipIcnInBytes(static_cast<std::size_t>(cfg.numChips), 0),
      chipIcnSnapshot(static_cast<std::size_t>(cfg.numChips), 0)
{
    cfg_.validate();

    if (org.dynamicPartitioning()) {
        dynCtrl = std::make_unique<DynamicPartitionController>(
            cfg_.dynamicLlc, cfg_.numChips, cfg_.llcWays);
    }

    chips.reserve(static_cast<std::size_t>(cfg_.numChips));
    for (ChipId c = 0; c < cfg_.numChips; ++c)
        chips.push_back(std::make_unique<Chip>(cfg_, map, c, trace_, *this));

    const int split = org.initialWaySplit(cfg_.llcWays);
    for (auto &chip : chips) {
        chip->setWaySplit(split);
        chip->setDirectBypass(org.separateRemoteNoc());
    }

    result.organization = org.name();

    if (kind == OrgKind::Sac)
        sacSvc_ = std::make_unique<TenantSacService>(cfg_, org, *this);
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
System::occupancyDigest() const
{
    std::ostringstream os;
    os << "occupancy digest @ cycle " << clock << ", kernel "
       << currentKernel << ", org " << org.name() << ", mode "
       << org.modeName() << "\n";

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

    const RoutePlan plan = org.route(pkt.lineAddr, pkt.srcChip, home, map);
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
}

void
System::handleWrite(const Packet &pkt, ChipId writer)
{
    if (!org.cachesRemoteData())
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
    ++clock;
}

bool
System::atRest() const
{
    return icn.atRest() &&
           std::all_of(chips.begin(), chips.end(),
                       [](const auto &chip) { return chip->atRest(); });
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
    streams_[static_cast<std::size_t>(stream)].result.sacDecisions.push_back(
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
            return sys.chips[static_cast<std::size_t>(chip)]
                ->memCtrl()
                .occupyBulk(bytes, now);
        }
    } mem(*this);

    return flush::flushDoneCycle(traffic, costs, clock, mem);
}

bool
System::finished() const
{
    return std::all_of(streams_.begin(), streams_.end(),
                       [](const StreamState &s) { return s.complete(); });
}

bool
System::anyResident() const
{
    return std::any_of(streams_.begin(), streams_.end(),
                       [](const StreamState &s) { return s.running; });
}

Cycle
System::nextLaunch() const
{
    Cycle due = cycleNever;
    for (const auto &s : streams_) {
        if (!s.started() && s.launchAt < due)
            due = s.launchAt;
    }
    return due;
}

void
System::settle()
{
    bool progress = true;
    while (progress) {
        progress = false;
        for (auto &s : streams_) {
            if (!s.started() && clock >= s.launchAt) {
                launchStreamKernel(s);
                progress = true;
            }
        }
        for (auto &s : streams_) {
            if (!s.running)
                continue;
            const bool done = std::all_of(
                chips.begin(), chips.end(), [&](const auto &chip) {
                    return chip->clustersDone(s.clusters.first,
                                              s.clusters.count);
                });
            if (done) {
                finishStreamKernel(s);
                if (!s.complete())
                    launchStreamKernel(s);
                progress = true;
            }
        }
    }
}

void
System::launchStreamKernel(StreamState &s)
{
    const KernelDescriptor &kernel = s.kernels[s.next];
    const int stream = s.result.stream;
    trace_.beginStreamKernel(stream, kernel.index);
    for (auto &chip : chips) {
        chip->beginKernel(s.clusters.first, s.clusters.count,
                          kernel.accessesPerWarp, clock);
    }
    // The livelock cap re-bases on any stream's launch.
    lastLaunch_ = clock;

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

    if (!s.started())
        s.result.launchCycle = clock;
    s.kernelStart = clock;
    s.running = true;
    ++s.next;
}

void
System::finishStreamKernel(StreamState &s)
{
    const int kernel_index = s.kernels[s.next - 1].index;
    const ClusterRange &clusters = s.clusters;
    s.running = false;

    const Cycle duration = clock - s.kernelStart;
    if (eventTrace_)
        eventTrace_->kernelEnd(kernel_index, clock, duration);
    s.result.kernelCycles.push_back(duration);
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

    const bool llc_needs_flush = org.cachesRemoteData() &&
                                 coherence.kind() == CoherenceKind::Software;
    if (llc_needs_flush) {
        const Cycle done = flushLlc(org.flushesReplicasOnly());
        result.flushStallCycles += done - clock;
        s.result.flushStallCycles += done - clock;
        if (eventTrace_) {
            eventTrace_->flush(kernel_index, clock, done - clock,
                               "kernel-boundary");
        }
        if (whole_machine) {
            // Nothing else runs: the clock jumps over the flush
            // envelope without ticking anything.
            clock = std::max(clock, done);
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
        sacSvc_->endStreamKernel(s.result.stream, whole_machine);
    if (s.complete())
        s.result.finishCycle = clock;
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

Cycle
System::sampleDue() const
{
    return sampler_ ? sampler_->nextDue() : cycleNever;
}

Cycle
System::epochDue() const
{
    return dynCtrl ? lastEpoch + dynCtrl->epoch() : cycleNever;
}

Cycle
System::occupancyDue() const
{
    return lastOccupancySample + cfg_.occupancyInterval;
}

Cycle
System::cycleLimitDue() const
{
    // The deadline is `clock > maxCycles`.
    return limits_.maxCycles > 0 ? limits_.maxCycles + 1 : cycleNever;
}

Cycle
System::nextDeadline() const
{
    const Cycle due = std::min({nextLaunch(), sampleDue(), epochDue(),
                                occupancyDue(), cycleLimitDue()});
    // The tick at due - 1 raises the clock to due.
    return due == 0 || due == cycleNever ? due : due - 1;
}

void
System::control(bool jumped)
{
    const int kernel = currentKernel;
    if (clock >= sampleDue())
        sampler_->sample(counterTotals(), clock, kernel, org.modeName());
    if (sacSvc_)
        sacSvc_->tick(clock);
    if (clock >= epochDue())
        dynamicEpochUpdate();
    if (clock >= occupancyDue())
        sampleOccupancy();
    if (anyResident() && clock - lastLaunch_ > limits_.livelockCap()) {
        // Instead of dying silently at the cap, capture what every
        // queue and MSHR file was holding so the post-mortem starts
        // with data.
        throw LivelockError(log_detail::concat(
            "kernel ", kernel, " exceeded ", limits_.livelockCap(),
            " cycles: likely livelock\n", occupancyDigest()));
    }
    if (clock >= cycleLimitDue()) {
        throw SimTimeoutError(log_detail::concat(
            "run exceeded the ", limits_.maxCycles,
            "-cycle deadline in kernel ", kernel, "\n", occupancyDigest()));
    }
    checkCancel(jumped, kernel);
    settle();
}

void
System::startCancelWatch()
{
    cancelSteps_ = 0;
    wallBudget_.reset();
    observed_ = cancel_;
    if (limits_.maxWallMs <= 0.0)
        return;
    wallBudget_ = std::make_unique<CancelToken>();
    wallBudget_->linkParent(cancel_);
    wallBudget_->setDeadlineAfterMs(limits_.maxWallMs, wallBudgetReason);
    observed_ = wallBudget_.get();
}

void
System::checkCancel(bool jumped, int kernel)
{
    if (!observed_)
        return;
    if (!jumped && ++cancelSteps_ % cancelCheckInterval != 0)
        return;
    if (!observed_->cancelled())
        return;
    const std::string why = observed_->reason();
    if (wallBudget_ && why == wallBudgetReason) {
        throw SimTimeoutError(log_detail::concat(
            "run exceeded the wall-clock deadline (", limits_.maxWallMs,
            " ms) in kernel ", kernel, "\n", occupancyDigest()));
    }
    throw SimTimeoutError(log_detail::concat("run cancelled in kernel ",
                                             kernel, ": ", why));
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
    std::vector<StreamState> streams(1);
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

    const auto ranges = scenario.clusterRanges(cfg_.clustersPerChip);
    std::vector<StreamState> states(scenario.streams.size());
    for (std::size_t s = 0; s < states.size(); ++s) {
        const StreamSpec &spec = scenario.streams[s];
        const int stream = static_cast<int>(s);
        auto &state = states[s];
        state.launchAt = spec.launchCycle;
        state.clusters = ranges[s];
        state.kernels = kernelsFor(spec.profile, spec.numKernels, stream);
        state.result.stream = stream;
        state.result.name = spec.profile.name;
        for (auto &chip : chips)
            chip->setClusterStream(ranges[s].first, ranges[s].count, stream);
    }
    return runStreams(std::move(states));
}

RunResult
System::runStreams(std::vector<StreamState> streams)
{
    SAC_ASSERT(!streams.empty(), "run without any kernel stream");
    for (const auto &s : streams)
        SAC_ASSERT(!s.kernels.empty(), "stream without any kernel");
    const int n = static_cast<int>(streams.size());
    for (auto &chip : chips) {
        for (int sl = 0; sl < chip->numSlices(); ++sl)
            chip->slice(sl).setStreamCount(n);
    }
    if (sacSvc_)
        sacSvc_->reset(n);

    currentKernel = 0;
    streams_ = std::move(streams);
    startCancelWatch();

    // The loop body is the whole story: tick one cycle, then run the
    // control step. While no stream has a kernel resident and the
    // machine is at rest, a tick changes nothing but the clock, so
    // the clock jumps to the earliest pre-tick control deadline: the
    // steps it passes over would all have found nothing due.
    settle();
    while (!finished()) {
        bool jumped = false;
        if (!anyResident() && fastForward_ && atRest()) {
            const Cycle wake = nextDeadline();
            if (wake > clock && wake != cycleNever) {
                ++ffStats_.skips;
                ffStats_.skippedCycles += wake - clock;
                clock = wake;
                jumped = true;
            }
        }
        tick();
        control(jumped);
    }

    // --- final aggregation ------------------------------------------------
    result.cycles = clock;
    const auto [req, hits] = llcTotals();
    result.llcRequests = req;
    result.llcHits = hits;

    sumClusters(chips, {0, static_cast<std::uint64_t>(cfg_.clustersPerChip)},
                result);
    for (const auto &chip : chips)
        result.dramBytes += chip->memCtrl().bytesServed();
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
                             currentKernel, org.modeName());
            t.samples = sampler_->take();
        }
        if (eventTrace_)
            t.events = eventTrace_->take();
        result.timeline = std::move(t);
    }

    if (n > 1) {
        // Per-stream splits: cluster-side counters from each stream's
        // cluster range, LLC counters from the per-slice stream
        // accounting; the rest the kernel flow filled in.
        for (auto &s : streams_) {
            sumClusters(chips, s.clusters, s.result);
            std::tie(s.result.llcRequests, s.result.llcHits) =
                streamLlcTotals(s.result.stream);
            result.streams.push_back(std::move(s.result));
        }
    }
    return result;
}

} // namespace sac
