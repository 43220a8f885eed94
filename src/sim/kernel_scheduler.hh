/**
 * @file
 * Kernel-flow scheduling as a RunService.
 *
 * The KernelScheduler owns what System::run used to inline: launching
 * each stream's next kernel, detecting per-stream completion, and
 * dispatching the follow-on kernel at the completion cycle. Every run
 * is a set of streams: each owns a cluster range and progresses
 * through its kernel sequence independently. A single-kernel run is
 * the one-stream case, whose range is every cluster of every chip.
 *
 * It registers under RunPhase::KernelFlow — the last phase — so at a
 * completion cycle every other service polls before the finish/launch
 * runs. System::finishStreamKernel decides what a boundary costs:
 * when the finishing stream owns every cluster, the software-coherence
 * flush jumps the clock and SAC reverts without a charge; otherwise
 * only that stream's clusters stall.
 */

#ifndef SAC_SIM_KERNEL_SCHEDULER_HH
#define SAC_SIM_KERNEL_SCHEDULER_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.hh"
#include "gpu/cta_scheduler.hh"
#include "gpu/kernel.hh"
#include "sim/run_service.hh"

namespace sac {

class System;

/** Launch/progress state of one kernel stream inside a run. */
struct KernelStreamState
{
    int stream = 0;
    /** Cycle at which the stream's first kernel launches. */
    Cycle launchAt = 0;
    /** Cluster range the stream owns on every chip. */
    CtaScheduler::Range clusters;
    std::vector<KernelDescriptor> kernels;
    /** Next kernel to launch. */
    std::size_t next = 0;
    /** A kernel of this stream is currently resident. */
    bool running = false;
    /** First kernel has launched. */
    bool started = false;
    /** Cycle the first kernel actually launched. */
    Cycle startedAt = 0;
    /** Launch cycle of the resident kernel. */
    Cycle kernelStart = 0;
    /** Cycle the last kernel completed. */
    Cycle finishedAt = 0;
    /** Stream profile name (per-stream results). */
    std::string name;
    /** Every kernel of the stream has completed. */
    bool complete = false;

    bool exhausted() const { return next >= kernels.size(); }
};

/** Drives kernel launch/completion for every stream of a run. */
class KernelScheduler final : public RunService
{
  public:
    explicit KernelScheduler(System &sys) : sys_(sys) {}

    /** Re-arms the scheduler for a run of @p streams. */
    void reset(std::vector<KernelStreamState> streams);

    /**
     * Launches everything due at @p now and settles instantly-done
     * kernels (a kernel with zero accesses per warp retires all warps
     * at launch) — the zero-advance behaviour of the old loop.
     */
    void start(Cycle now);

    /** True once every stream completed its kernel sequence. */
    bool finished() const;

    /** Index of the most recently launched kernel (TickInfo::kernel). */
    int currentKernelIndex() const { return tickKernel_; }

    const std::vector<KernelStreamState> &streams() const
    {
        return streams_;
    }

    const char *name() const override { return "kernel-scheduler"; }
    Cycle nextDue(Cycle now) const override;
    void poll(const TickInfo &tick) override;

  private:
    /**
     * One scheduling pass: launch due first kernels, finish completed
     * ones (dispatching each stream's next kernel at the completion
     * cycle), repeated until stable within the current cycle.
     */
    void settle();
    void launch(KernelStreamState &s);
    void finish(KernelStreamState &s);
    bool streamDone(const KernelStreamState &s) const;

    System &sys_;
    std::vector<KernelStreamState> streams_;
    int tickKernel_ = 0;
};

} // namespace sac

#endif // SAC_SIM_KERNEL_SCHEDULER_HH
