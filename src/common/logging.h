#ifndef RECSTACK_COMMON_LOGGING_H_
#define RECSTACK_COMMON_LOGGING_H_

/**
 * @file
 * Error reporting utilities, modeled after gem5's
 * fatal()/panic()/warn() conventions.
 *
 * fatal()  — the run cannot continue because of a user error (bad
 *            configuration, invalid argument). Exits with code 1.
 * panic()  — an internal invariant was violated (a recstack bug).
 *            Aborts so a core dump / debugger is available.
 * warn()   — something is suspicious but the run can continue.
 */

#include <sstream>
#include <string>

namespace recstack {

/** Severity of a log message. */
enum class LogLevel { kWarn, kFatal, kPanic };

namespace detail {

/** Emit a formatted message; terminates the process for kFatal/kPanic. */
[[noreturn]] void logAndDie(LogLevel level, const char* file, int line,
                            const std::string& msg);
void log(LogLevel level, const char* file, int line, const std::string& msg);

}  // namespace detail

}  // namespace recstack

#define RECSTACK_MSG_(level, dead, ...)                                     \
    do {                                                                    \
        std::ostringstream recstack_oss_;                                   \
        recstack_oss_ << __VA_ARGS__;                                       \
        if constexpr (dead) {                                               \
            ::recstack::detail::logAndDie(level, __FILE__, __LINE__,        \
                                          recstack_oss_.str());             \
        } else {                                                            \
            ::recstack::detail::log(level, __FILE__, __LINE__,              \
                                    recstack_oss_.str());                   \
        }                                                                   \
    } while (0)

/** User-caused unrecoverable error. */
#define RECSTACK_FATAL(...) \
    RECSTACK_MSG_(::recstack::LogLevel::kFatal, true, __VA_ARGS__)
/** Internal invariant violation (a bug in recstack itself). */
#define RECSTACK_PANIC(...) \
    RECSTACK_MSG_(::recstack::LogLevel::kPanic, true, __VA_ARGS__)
/** Suspicious-but-survivable condition. */
#define RECSTACK_WARN(...) \
    RECSTACK_MSG_(::recstack::LogLevel::kWarn, false, __VA_ARGS__)

/** Cheap always-on invariant check that panics with a message. */
#define RECSTACK_CHECK(cond, ...)                                           \
    do {                                                                    \
        if (!(cond)) {                                                      \
            RECSTACK_PANIC("check failed: " #cond ": " << __VA_ARGS__);     \
        }                                                                   \
    } while (0)

#endif  // RECSTACK_COMMON_LOGGING_H_
