#include "sim/kernel_scheduler.hh"

#include "common/log.hh"
#include "sim/system.hh"

namespace sac {

void
KernelScheduler::reset(std::vector<KernelStreamState> streams)
{
    SAC_ASSERT(!streams.empty(), "run without any kernel stream");
    for (const auto &s : streams)
        SAC_ASSERT(!s.kernels.empty(), "stream without any kernel");
    streams_ = std::move(streams);
    resident_ = 0;
}

bool
KernelScheduler::finished() const
{
    for (const auto &s : streams_) {
        if (!s.complete)
            return false;
    }
    return true;
}

Cycle
KernelScheduler::nextLaunch() const
{
    Cycle due = cycleNever;
    for (const auto &s : streams_) {
        if (!s.started && s.launchAt < due)
            due = s.launchAt;
    }
    return due;
}

bool
KernelScheduler::streamDone(const KernelStreamState &s) const
{
    for (const auto &chip : sys_.chips) {
        if (!chip->clustersDone(s.clusters.first, s.clusters.count))
            return false;
    }
    return true;
}

void
KernelScheduler::launch(KernelStreamState &s)
{
    const KernelDescriptor &kernel = s.kernels[s.next];
    sys_.launchStreamKernel(s.stream, kernel, s.clusters);
    s.kernelStart = sys_.clock;
    if (!s.started) {
        s.started = true;
        s.startedAt = sys_.clock;
    }
    s.running = true;
    ++resident_;
    ++s.next;
}

void
KernelScheduler::finish(KernelStreamState &s)
{
    const int kernel_index = s.kernels[s.next - 1].index;
    s.running = false;
    --resident_;
    sys_.finishStreamKernel(s.stream, kernel_index, s.clusters, s.kernelStart);
    if (s.exhausted()) {
        s.complete = true;
        s.finishedAt = sys_.clock;
    }
}

void
KernelScheduler::settle()
{
    // A finish dispatches the stream's next kernel at the completion
    // cycle, and that kernel may itself be instantly done (zero
    // accesses per warp) — iterate until nothing changes. Streams are
    // visited in index order, so multi-stream ties are deterministic.
    bool progress = true;
    while (progress) {
        progress = false;
        for (auto &s : streams_) {
            if (!s.started && !s.complete && sys_.clock >= s.launchAt) {
                launch(s);
                progress = true;
            }
        }
        for (auto &s : streams_) {
            if (s.running && streamDone(s)) {
                finish(s);
                if (!s.complete)
                    launch(s);
                progress = true;
            }
        }
    }
}

} // namespace sac
