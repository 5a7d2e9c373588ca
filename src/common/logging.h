// Minimal leveled logger. Quiet by default so tests and benchmarks stay
// readable; raise the level to trace protocol decisions.

#ifndef ENCOMPASS_COMMON_LOGGING_H_
#define ENCOMPASS_COMMON_LOGGING_H_

#include <cstdio>
#include <sstream>
#include <string>

namespace encompass {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

/// Global log configuration (process-wide; the simulation is single-threaded).
class Logger {
 public:
  static LogLevel level() { return level_; }

  /// Emits one line to stderr: "[LEVEL] message".
  static void Write(LogLevel level, const std::string& msg);

 private:
  static LogLevel level_;
};

namespace log_internal {

class LineBuilder {
 public:
  explicit LineBuilder(LogLevel level) : level_(level) {}
  ~LineBuilder() { Logger::Write(level_, stream_.str()); }
  template <typename T>
  LineBuilder& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace log_internal
}  // namespace encompass

#define ENCOMPASS_LOG(severity)                                        \
  if (::encompass::LogLevel::severity < ::encompass::Logger::level()) \
    ;                                                                  \
  else                                                                 \
    ::encompass::log_internal::LineBuilder(::encompass::LogLevel::severity)

#define LOG_TRACE ENCOMPASS_LOG(kTrace)
#define LOG_DEBUG ENCOMPASS_LOG(kDebug)
#define LOG_INFO ENCOMPASS_LOG(kInfo)
#define LOG_WARN ENCOMPASS_LOG(kWarn)
#define LOG_ERROR ENCOMPASS_LOG(kError)

#endif  // ENCOMPASS_COMMON_LOGGING_H_
