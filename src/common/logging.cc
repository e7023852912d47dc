#include "common/logging.h"

#include <cstdio>
#include <cstdlib>

namespace recstack {
namespace {

const char* levelTag(LogLevel level)
{
    switch (level) {
      case LogLevel::kWarn: return "warn";
      case LogLevel::kFatal: return "fatal";
      case LogLevel::kPanic: return "panic";
    }
    return "?";
}

}  // namespace

namespace detail {

void log(LogLevel level, const char* file, int line, const std::string& msg)
{
    std::fprintf(stderr, "[%s] %s:%d: %s\n", levelTag(level), file, line,
                 msg.c_str());
}

void logAndDie(LogLevel level, const char* file, int line,
               const std::string& msg)
{
    std::fprintf(stderr, "[%s] %s:%d: %s\n", levelTag(level), file, line,
                 msg.c_str());
    if (level == LogLevel::kPanic) {
        std::abort();
    }
    std::exit(1);
}

}  // namespace detail
}  // namespace recstack
