#include "llc/organization.hh"

#include "common/log.hh"
#include "common/suggest.hh"

namespace sac {

const char *
toString(OrgKind kind)
{
    switch (kind) {
      case OrgKind::MemorySide: return "Memory-side";
      case OrgKind::SmSide: return "SM-side";
      case OrgKind::StaticLlc: return "Static";
      case OrgKind::DynamicLlc: return "Dynamic";
      case OrgKind::Sac: return "SAC";
    }
    return "?";
}

OrgKind
orgKindFromName(const std::string &name)
{
    if (name == "mem")
        return OrgKind::MemorySide;
    if (name == "sm")
        return OrgKind::SmSide;
    if (name == "static")
        return OrgKind::StaticLlc;
    if (name == "dynamic")
        return OrgKind::DynamicLlc;
    if (name == "sac")
        return OrgKind::Sac;
    invalid(name, "unknown organization (want mem|sm|static|dynamic|sac)",
            didYouMean(name, {"mem", "sm", "static", "dynamic", "sac"}));
}

void
Organization::setMode(LlcMode mode)
{
    SAC_ASSERT(kind_ == OrgKind::Sac, "only SAC switches modes");
    mode_ = mode;
}

const char *
Organization::modeName() const
{
    return kind_ == OrgKind::Sac ? toString(mode_) : name();
}

RoutePlan
Organization::route(Addr line_addr, ChipId src, ChipId home,
                    const AddressMap &map) const
{
    switch (kind_) {
      case OrgKind::MemorySide:
        return memorySideRoute(line_addr, home, map);
      case OrgKind::SmSide:
        return smSideRoute(line_addr, src, home, map);
      case OrgKind::StaticLlc:
      case OrgKind::DynamicLlc:
        return partitionedRoute(line_addr, src, home, map);
      case OrgKind::Sac:
        return mode_ == LlcMode::MemorySide
                   ? memorySideRoute(line_addr, home, map)
                   : smSideRoute(line_addr, src, home, map);
    }
    panic("unknown organization kind");
}

bool
Organization::cachesRemoteData() const
{
    switch (kind_) {
      case OrgKind::MemorySide: return false;
      case OrgKind::SmSide:
      case OrgKind::StaticLlc:
      case OrgKind::DynamicLlc: return true;
      case OrgKind::Sac: return mode_ == LlcMode::SmSide;
    }
    panic("unknown organization kind");
}

} // namespace sac
