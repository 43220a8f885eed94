#include "sim/run_service.hh"

#include <algorithm>

namespace sac {

Cycle
checkWake(Cycle threshold)
{
    return threshold == 0 ? 0 : threshold - 1;
}

void
RunServiceRegistry::add(RunPhase phase, RunService &svc)
{
    const Entry entry{static_cast<int>(phase), &svc};
    // Insert after the last entry with phase <= the new one: stable
    // within a phase, sorted across phases.
    const auto pos = std::upper_bound(
        entries_.begin(), entries_.end(), entry,
        [](const Entry &a, const Entry &b) { return a.phase < b.phase; });
    entries_.insert(pos, entry);
}

Cycle
RunServiceRegistry::nextWake(Cycle now) const
{
    Cycle wake = cycleNever;
    for (const Entry &e : entries_) {
        const Cycle due = e.svc->nextDue(now);
        if (due != cycleNever)
            wake = std::min(wake, checkWake(due));
    }
    return wake;
}

void
RunServiceRegistry::poll(const TickInfo &tick)
{
    for (const Entry &e : entries_)
        e.svc->poll(tick);
}

std::vector<const char *>
RunServiceRegistry::names() const
{
    std::vector<const char *> out;
    out.reserve(entries_.size());
    for (const Entry &e : entries_)
        out.push_back(e.svc->name());
    return out;
}

} // namespace sac
