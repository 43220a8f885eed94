/**
 * @file
 * Command-line number parsing shared by sacsim and sacsimd, so both
 * tools accept and reject a numeric flag value the same way.
 */

#ifndef SAC_TOOLS_CLI_HH
#define SAC_TOOLS_CLI_HH

#include <charconv>
#include <string>
#include <system_error>

#include "common/log.hh"

namespace sac::cli {

/**
 * Parses @p text, the value given to @p flag, as a T. The whole text
 * must be one number that fits T: trailing text, a sign on an
 * unsigned flag and a value outside T's range are rejected, and the
 * message names the flag.
 */
template <typename T>
T
number(const std::string &flag, const std::string &text)
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc::result_out_of_range)
        fatal("value '", text, "' for ", flag, " is out of range");
    if (ec != std::errc() || ptr != end)
        fatal("invalid value '", text, "' for ", flag);
    return value;
}

} // namespace sac::cli

#endif // SAC_TOOLS_CLI_HH
