#include "sim/fault_injection.hh"

#include <utility>

namespace sac {

FaultSpec
FaultSpec::fatalAt(Cycle cycle, std::string msg)
{
    FaultSpec spec;
    spec.kind = Kind::Fatal;
    spec.atCycle = cycle;
    spec.message = std::move(msg);
    return spec;
}

FaultSpec
FaultSpec::panicAt(Cycle cycle, std::string msg)
{
    FaultSpec spec;
    spec.kind = Kind::Panic;
    spec.atCycle = cycle;
    spec.message = std::move(msg);
    return spec;
}

FaultSpec
FaultSpec::validation(std::string msg)
{
    FaultSpec spec;
    spec.kind = Kind::Validation;
    spec.message = std::move(msg);
    return spec;
}

FaultPlan &
FaultPlan::fail(std::string label, FaultSpec spec)
{
    faults_[std::move(label)] = std::move(spec);
    return *this;
}

const FaultSpec *
FaultPlan::find(const std::string &label) const
{
    const auto it = faults_.find(label);
    return it == faults_.end() ? nullptr : &it->second;
}

} // namespace sac
