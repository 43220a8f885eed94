/**
 * @file
 * gem5-flavoured status and error reporting.
 *
 * panic()  — simulator bug; should never happen regardless of input.
 * fatal()  — user error (bad configuration, invalid arguments).
 * warn()   — something works, but suspiciously (stderr).
 *
 * panic/fatal/invalid only throw typed exceptions, instead of aborting
 * or printing, so that unit tests can assert on misuse and every error
 * is reported exactly once, by whoever catches it: the binaries'
 * top-level handlers (which turn it into process exit), the
 * experiment engine (a failed record's diagnostic) or the daemon (an
 * error event).
 */

#ifndef SAC_COMMON_LOG_HH
#define SAC_COMMON_LOG_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace sac {

/** Thrown by panic(): an internal invariant was violated. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/** Thrown by fatal(): the user asked for something unsupported. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/**
 * Thrown by invalid(): a specific piece of user input was rejected.
 *
 * Derives from FatalError so every existing catch/EXPECT_THROW keeps
 * working, but additionally carries a machine-checkable context
 * string locating the offending input — the path of a scenario file,
 * "line 3, column 12" for JSON text, "GpuConfig.lineBytes" for
 * configuration fields. Validation errors are recoverable by
 * design: no simulator state is modified before they are thrown, so
 * a sweep engine can mark the one job failed and carry on.
 */
class ValidationError : public FatalError
{
  public:
    ValidationError(std::string context, const std::string &msg)
        : FatalError(context.empty() ? msg : context + ": " + msg),
          context_(std::move(context))
    {
    }

    /** Where the rejected input came from (may be empty). */
    const std::string &context() const { return context_; }

  private:
    std::string context_;
};

namespace log_detail {

/** Concatenates stream-formattable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

void emit(const char *tag, const std::string &msg);

} // namespace log_detail

/** An internal simulator bug: throws PanicError. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    throw PanicError(log_detail::concat(std::forward<Args>(args)...));
}

/** An unrecoverable user/configuration error: throws FatalError. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    throw FatalError(log_detail::concat(std::forward<Args>(args)...));
}

/**
 * Rejects a piece of user input: throws ValidationError carrying
 * @p context (which input) and the formatted message (why).
 */
template <typename... Args>
[[noreturn]] void
invalid(const std::string &context, Args &&...args)
{
    throw ValidationError(context,
                          log_detail::concat(std::forward<Args>(args)...));
}

/** Warns about suspicious but non-fatal conditions. */
template <typename... Args>
void
warn(Args &&...args)
{
    log_detail::emit("warn", log_detail::concat(std::forward<Args>(args)...));
}

/** panic() unless the condition holds. */
#define SAC_ASSERT(cond, ...)                                              \
    do {                                                                   \
        if (!(cond))                                                       \
            ::sac::panic("assertion '", #cond, "' failed: ", __VA_ARGS__); \
    } while (0)

} // namespace sac

#endif // SAC_COMMON_LOG_HH
