#include "sim/fault_injection.hh"

#include <fstream>
#include <utility>
#include <vector>

#include "common/log.hh"

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

namespace fault_injection {

namespace {

std::vector<char>
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        invalid(path, "cannot open file for fault injection");
    return std::vector<char>(std::istreambuf_iterator<char>(is),
                             std::istreambuf_iterator<char>());
}

void
rewrite(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        invalid(path, "cannot rewrite file for fault injection");
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!os)
        invalid(path, "short write while injecting fault");
}

} // namespace

void
truncateFile(const std::string &path, std::size_t keep_bytes)
{
    std::vector<char> bytes = slurp(path);
    if (keep_bytes < bytes.size())
        bytes.resize(keep_bytes);
    rewrite(path, bytes);
}

void
corruptFile(const std::string &path, std::size_t offset)
{
    std::vector<char> bytes = slurp(path);
    if (bytes.empty())
        invalid(path, "cannot corrupt an empty file");
    if (offset >= bytes.size())
        offset = bytes.size() - 1;
    bytes[offset] = static_cast<char>(~bytes[offset]);
    rewrite(path, bytes);
}

} // namespace fault_injection

} // namespace sac
