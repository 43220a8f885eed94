/**
 * @file
 * SAC runtime control (Sections 3.2, 3.5 and 3.6), one profiling
 * window per kernel stream.
 *
 * Every kernel launch opens its stream's profiling window under the
 * memory-side organization: the tenant's own Profiler sees only that
 * stream's L1 misses, and its hit rate comes from that stream's
 * per-slice LLC counters. When the window closes, decideWindow feeds
 * the counters to the EAB model, and the service arbitrates the live
 * verdicts into the machine's single LLC mode. With one stream — a
 * plain single-kernel run — this is exactly the paper's controller:
 * profile, decide, reconfigure if SM-side wins, revert at kernel end.
 *
 * Policy:
 *
 *  - Profiling must run memory-side (the EAB inputs assume it), so
 *    opening any tenant's window while the machine is SM-side first
 *    reverts it (drain + flush, tagged "re-profile") — even when the
 *    SM-side mode was another tenant's verdict. Arbitration re-applies
 *    the winning verdict after the window closes.
 *  - Arbitration: the verdict of the bandwidth-major tenant — the one
 *    with the largest windowed LLC request count — wins; an exact tie
 *    between disagreeing tenants falls back to memory-side (the
 *    paper's default configuration). Any resulting mode change is a
 *    full reconfiguration (drain + flush).
 *  - Kernel end drops the stream's verdict. When the finishing stream
 *    owns every cluster (the whole machine), nothing else runs: the
 *    machine reverts to memory-side without a charge, like the
 *    paper's per-kernel revert. Otherwise the remaining verdicts are
 *    re-arbitrated, and a resulting mode change is charged.
 *  - With sac.reprofileInterval > 0, each tenant re-opens its window
 *    that many cycles after the last one closed, while its kernel
 *    runs.
 */

#ifndef SAC_SAC_TENANT_HH
#define SAC_SAC_TENANT_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"
#include "llc/organization.hh"
#include "sac/eab.hh"
#include "sac/profiler.hh"

namespace sac {

/** Outcome of one profiling window. */
struct SacDecision
{
    int kernel = 0;
    LlcMode chosen = LlcMode::MemorySide;
    eab::Result eab;
    eab::WorkloadParams inputs;
};

/**
 * The pure decision step of a closed profiling window: feed the
 * profiler's counters and the measured memory-side hit rate to the
 * EAB model and pick the winning mode.
 */
SacDecision decideWindow(const eab::ArchParams &arch, const SacParams &params,
                         const Profiler &prof, double measured_mem_hit_rate,
                         int kernel);

/** What SAC control needs from the surrounding system. */
class TenantHost
{
  public:
    /** Current LLC request/hit totals attributed to @p stream. */
    virtual std::pair<std::uint64_t, std::uint64_t>
    streamLlcTotals(int stream) const = 0;

    /**
     * Records a tenant's closed-window decision: result bookkeeping
     * plus the windowClose trace event. @p hit_rate is the LLC hit
     * rate measured over the (post-midpoint) window.
     */
    virtual void tenantWindowClosed(int stream, const SacDecision &d,
                                    double hit_rate) = 0;

    /** Counts + traces a reconfiguration to @p to (before its flush). */
    virtual void reconfigured(LlcMode to) = 0;

    /**
     * Performs the full-LLC drain + flush of a mode change: pauses
     * the clusters until the flush completes, charges the stall and
     * emits the flush trace event tagged @p reason ("reconfigure" or
     * "re-profile").
     */
    virtual void modeChangeFlush(const char *reason) = 0;

  protected:
    ~TenantHost() = default;
};

/** Per-tenant profiling windows + verdict arbitration. */
class TenantSacService
{
  public:
    /**
     * @p cfg must outlive the service (tenants are built from it);
     * @p org is the machine's SAC organization, whose mode it flips.
     */
    TenantSacService(const GpuConfig &cfg, Organization &org,
                     TenantHost &host);

    /** Re-arms the service for a run of @p streams kernel streams. */
    void reset(int streams);

    /** Kernel launch on @p stream: opens that tenant's window. */
    void beginStreamKernel(int stream, int kernel, Cycle now);

    /**
     * Kernel end on @p stream: cancels an open window (no decision is
     * recorded) and drops the tenant's verdict. @p whole_machine says
     * the stream owns every cluster: revert to memory-side without a
     * charge. Otherwise re-arbitrate the remaining verdicts.
     */
    void endStreamKernel(int stream, bool whole_machine);

    /** True while @p stream's profiling window is collecting. */
    bool windowOpen(int stream) const
    {
        return tenants_[static_cast<std::size_t>(stream)].open;
    }

    /** Feeds one of @p stream's L1 misses to its profiler. */
    void onL1Miss(int stream, ChipId src, ChipId home, int slice,
                  Addr line_addr, unsigned sector);

    /**
     * The per-cycle window check at post-tick clock @p now: takes each
     * open window's midpoint snapshot, closes windows that reached
     * their deadline or request count, and re-opens windows that are
     * due a re-profile. Windows open only while their stream's kernel
     * runs, so nothing here comes due while no kernel is resident.
     */
    void tick(Cycle now);

  private:
    struct Tenant
    {
        explicit Tenant(const GpuConfig &cfg) : prof(cfg) {}

        Profiler prof;
        /** A kernel of this stream is resident. */
        bool running = false;
        bool open = false;
        /** Hit-rate measurement restarts at the window midpoint so the
         *  cold-start transient does not bias the EAB comparison. */
        bool midTaken = false;
        Cycle mid = 0;
        Cycle windowEnd = 0;
        /** Close cycle of the last window (re-profiling base). */
        Cycle closedAt = 0;
        int kernel = 0;
        std::uint64_t reqSnapshot = 0;
        std::uint64_t hitSnapshot = 0;
        /** A closed window's verdict is live until the kernel ends. */
        bool hasVerdict = false;
        LlcMode want = LlcMode::MemorySide;
        /** LLC requests observed over the (post-mid) window. */
        std::uint64_t windowRequests = 0;
    };

    void open(int stream, Cycle now);
    void close(int stream, Cycle now);
    /** Applies the bandwidth-major tenant's verdict to the machine. */
    void arbitrate();

    const GpuConfig &cfg_;
    SacParams params_;
    eab::ArchParams arch_;
    Organization &org_;
    TenantHost &host_;
    std::vector<Tenant> tenants_;
};

} // namespace sac

#endif // SAC_SAC_TENANT_HH
