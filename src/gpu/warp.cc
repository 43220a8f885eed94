#include "gpu/warp.hh"

#include <algorithm>

#include "common/log.hh"

namespace sac {

WarpScheduler::WarpScheduler(int num_warps)
    : numWarps(num_warps), inReady(static_cast<std::size_t>(num_warps), 0)
{
    SAC_ASSERT(num_warps > 0 && num_warps <= (1 << warpBits),
               "warp count out of range: ", num_warps);
}

void
WarpScheduler::wake(int warp, Cycle at)
{
    SAC_ASSERT(warp >= 0 && warp < numWarps, "bad warp id ", warp);
    SAC_ASSERT((at >> (64 - warpBits)) == 0, "wake cycle out of range ", at);
    pending.push((at << warpBits) | static_cast<Pending>(warp));
}

void
WarpScheduler::surfaceDue(Cycle now)
{
    constexpr Pending warpMask = (Pending{1} << warpBits) - 1;
    while (!pending.empty() && (pending.top() >> warpBits) <= now) {
        const int warp = static_cast<int>(pending.top() & warpMask);
        pending.pop();
        if (!inReady[static_cast<std::size_t>(warp)]) {
            inReady[static_cast<std::size_t>(warp)] = 1;
            ready.push_back(warp);
        }
    }
}

int
WarpScheduler::peek() const
{
    SAC_ASSERT(!ready.empty(), "peek on empty ready list");
    return ready.front();
}

void
WarpScheduler::consume(int warp)
{
    SAC_ASSERT(!ready.empty() && ready.front() == warp,
               "consume out of order");
    inReady[static_cast<std::size_t>(warp)] = 0;
    ready.pop_front();
}

void
WarpScheduler::defer(int warp)
{
    SAC_ASSERT(!ready.empty() && ready.front() == warp,
               "defer out of order");
    // Leave the warp at the front: GTO keeps trying the same warp.
}

void
WarpScheduler::reset()
{
    ready.clear();
    std::fill(inReady.begin(), inReady.end(), 0);
    while (!pending.empty())
        pending.pop();
}

} // namespace sac
