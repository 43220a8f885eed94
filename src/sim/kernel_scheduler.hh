/**
 * @file
 * Kernel-flow scheduling: launching each stream's next kernel,
 * detecting per-stream completion, and dispatching the follow-on
 * kernel at the completion cycle. Every run is a set of streams: each
 * owns a cluster range and progresses through its kernel sequence
 * independently. A single-kernel run is the one-stream case, whose
 * range is every cluster of every chip.
 *
 * settle() is the last check of System::control(), so at a completion
 * cycle every other check runs before the finish/launch does.
 * System::finishStreamKernel decides what a boundary costs:
 * when the finishing stream owns every cluster, the software-coherence
 * flush jumps the clock and SAC reverts without a charge; otherwise
 * only that stream's clusters stall.
 *
 * Between a stream's last finish and another's first launch no kernel
 * may be resident at all. The run loop asks anyResident() before it
 * considers the at-rest jump, and the livelock cap does not count
 * through such a gap.
 */

#ifndef SAC_SIM_KERNEL_SCHEDULER_HH
#define SAC_SIM_KERNEL_SCHEDULER_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.hh"
#include "gpu/cta_scheduler.hh"
#include "gpu/kernel.hh"

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
class KernelScheduler
{
  public:
    explicit KernelScheduler(System &sys) : sys_(sys) {}

    /** Re-arms the scheduler for a run of @p streams. */
    void reset(std::vector<KernelStreamState> streams);

    /**
     * One scheduling pass at the current cycle: launch due first
     * kernels, finish completed ones (dispatching each stream's next
     * kernel at the completion cycle), repeated until stable — a
     * kernel with zero accesses per warp retires all warps at launch.
     */
    void settle();

    /** Earliest launch cycle of a stream not yet started, else
     *  cycleNever: the one kernel-flow threshold of the at-rest jump
     *  (completions need none, since no kernel is resident then). */
    Cycle nextLaunch() const;

    /** True once every stream completed its kernel sequence. */
    bool finished() const;

    /** True while some stream has a kernel resident. */
    bool anyResident() const { return resident_ > 0; }

    const std::vector<KernelStreamState> &streams() const
    {
        return streams_;
    }

  private:
    void launch(KernelStreamState &s);
    void finish(KernelStreamState &s);
    bool streamDone(const KernelStreamState &s) const;

    System &sys_;
    std::vector<KernelStreamState> streams_;
    /** Streams with a kernel resident. */
    int resident_ = 0;
};

} // namespace sac

#endif // SAC_SIM_KERNEL_SCHEDULER_HH
