#include "common/log.hh"

#include <cstdio>

namespace sac {
namespace log_detail {

void
emit(const char *tag, const std::string &msg)
{
    std::fprintf(stderr, "[%s] %s\n", tag, msg.c_str());
    std::fflush(stderr);
}

} // namespace log_detail
} // namespace sac
