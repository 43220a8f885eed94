#include "sac/tenant.hh"

#include "common/log.hh"

namespace sac {

SacDecision
decideWindow(const eab::ArchParams &arch, const SacParams &params,
             const Profiler &prof, double measured_mem_hit_rate, int kernel)
{
    SacDecision d;
    d.kernel = kernel;
    d.inputs = prof.workloadParams(measured_mem_hit_rate);
    d.eab = eab::evaluate(arch, d.inputs);
    d.chosen = d.eab.preferSmSide(params.theta) ? LlcMode::SmSide
                                                : LlcMode::MemorySide;
    return d;
}

TenantSacService::TenantSacService(const GpuConfig &cfg, Organization &org,
                                   TenantHost &host)
    : cfg_(cfg),
      params_(cfg.sac),
      arch_(eab::ArchParams::fromConfig(cfg)),
      org_(org),
      host_(host)
{
}

void
TenantSacService::reset(int streams)
{
    SAC_ASSERT(streams > 0, "SAC control needs at least one stream");
    tenants_.clear();
    tenants_.reserve(static_cast<std::size_t>(streams));
    for (int s = 0; s < streams; ++s)
        tenants_.emplace_back(cfg_);
}

void
TenantSacService::beginStreamKernel(int stream, int kernel, Cycle now)
{
    Tenant &t = tenants_[static_cast<std::size_t>(stream)];
    t.kernel = kernel;
    t.running = true;
    open(stream, now);
}

void
TenantSacService::endStreamKernel(int stream, bool whole_machine)
{
    Tenant &t = tenants_[static_cast<std::size_t>(stream)];
    t.running = false;
    t.open = false;
    t.hasVerdict = false;
    t.windowRequests = 0;
    if (whole_machine) {
        // Nothing else runs, and the next kernel profiles memory-side
        // anyway: revert without a charge (Section 3.5).
        org_.setMode(LlcMode::MemorySide);
        return;
    }
    // The departing tenant's verdict no longer weighs in; the
    // remaining tenants' winner (or the memory-side default) applies.
    arbitrate();
}

void
TenantSacService::onL1Miss(int stream, ChipId src, ChipId home, int slice,
                           Addr line_addr, unsigned sector)
{
    Tenant &t = tenants_[static_cast<std::size_t>(stream)];
    if (t.open)
        t.prof.onL1Miss(src, home, slice, line_addr, sector);
}

void
TenantSacService::open(int stream, Cycle now)
{
    Tenant &t = tenants_[static_cast<std::size_t>(stream)];
    if (org_.mode() == LlcMode::SmSide) {
        // Profiling assumes the memory-side configuration, so revert
        // first (drain + flush, Section 3.6) — even when SM-side was
        // another tenant's verdict (arbitration re-applies it after
        // this window closes).
        host_.modeChangeFlush("re-profile");
        org_.setMode(LlcMode::MemorySide);
    }
    t.prof.reset();
    const auto [req, hits] = host_.streamLlcTotals(stream);
    t.reqSnapshot = req;
    t.hitSnapshot = hits;
    t.open = true;
    t.midTaken = false;
    t.mid = now + params_.profileWindow / 2;
    t.windowEnd = now + params_.profileWindow;
}

void
TenantSacService::close(int stream, Cycle now)
{
    Tenant &t = tenants_[static_cast<std::size_t>(stream)];
    t.open = false;
    t.closedAt = now;
    const auto [req, hits] = host_.streamLlcTotals(stream);
    const auto dreq = req - t.reqSnapshot;
    const auto dhits = hits - t.hitSnapshot;
    const double hit_rate =
        dreq ? static_cast<double>(dhits) / static_cast<double>(dreq) : 0.0;
    const SacDecision d =
        decideWindow(arch_, params_, t.prof, hit_rate, t.kernel);
    host_.tenantWindowClosed(stream, d, hit_rate);
    t.want = d.chosen;
    t.hasVerdict = true;
    t.windowRequests = dreq;
    arbitrate();
}

void
TenantSacService::arbitrate()
{
    // The bandwidth-major tenant — largest windowed LLC request count
    // — wins. An exact tie between disagreeing verdicts (or no live
    // verdict at all) falls back to memory-side, the paper's default.
    std::uint64_t best = 0;
    for (const auto &t : tenants_) {
        if (t.hasVerdict && t.windowRequests > best)
            best = t.windowRequests;
    }
    LlcMode want = LlcMode::MemorySide;
    bool first = true;
    bool conflict = false;
    for (const auto &t : tenants_) {
        if (!t.hasVerdict || t.windowRequests != best)
            continue;
        if (first) {
            want = t.want;
            first = false;
        } else if (t.want != want) {
            conflict = true;
        }
    }
    if (first || conflict)
        want = LlcMode::MemorySide;

    if (want == org_.mode())
        return;
    // Reconfiguration: drain in-flight requests, write back and
    // invalidate the LLC, switch the routing policy (Section 3.6).
    org_.setMode(want);
    host_.reconfigured(want);
    host_.modeChangeFlush("reconfigure");
}

void
TenantSacService::tick(Cycle now)
{
    for (std::size_t s = 0; s < tenants_.size(); ++s) {
        Tenant &t = tenants_[s];
        const int stream = static_cast<int>(s);
        if (t.open && !t.midTaken &&
            (now >= t.mid ||
             t.prof.totalRequests() >= params_.profileMinRequests / 2)) {
            // Restart the hit-rate measurement past the cold-start
            // transient; the decision uses steady-ish rates.
            const auto [req, hits] = host_.streamLlcTotals(stream);
            t.reqSnapshot = req;
            t.hitSnapshot = hits;
            t.prof.restartMeasurement();
            t.midTaken = true;
        }
        if (t.open && t.midTaken &&
            (now >= t.windowEnd ||
             t.prof.totalRequests() >= params_.profileMinRequests)) {
            close(stream, now);
        }
        if (!t.open && t.running && params_.reprofileInterval > 0 &&
            now - t.closedAt >= params_.reprofileInterval) {
            open(stream, now);
        }
    }
}

} // namespace sac
