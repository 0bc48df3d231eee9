#ifndef CORRTRACK_TELEMETRY_LOG_H_
#define CORRTRACK_TELEMETRY_LOG_H_

#include <atomic>
#include <cstdint>

namespace corrtrack::telemetry {

/// Severity levels, most to least severe. The global level admits messages
/// at or above it (kWarn admits kError + kWarn). kOff silences everything.
enum class LogLevel : int {
  kOff = 0,
  kError = 1,
  kWarn = 2,
  kInfo = 3,
  kDebug = 4,
};

/// Effective global level. Initialised once from the CORRTRACK_LOG
/// environment variable (off|error|warn|info|debug); defaults to kError,
/// so kWarn-level degradation notices (checkpoint write failures, refused
/// checkpoint sections) stay quiet in tests unless explicitly enabled.
LogLevel GlobalLogLevel();

/// Overrides the global level (tests and examples). Pass-through until
/// reset; call with the value of GlobalLogLevel() to restore.
void SetLogLevel(LogLevel level);

/// Redirects formatted log lines to `sink(line)` instead of stderr.
/// nullptr restores stderr. Test hook — not thread-safe against in-flight
/// logging from other threads.
void SetLogSinkForTest(void (*sink)(const char* line, void* arg), void* arg);

/// Per-call-site rate limiter state: a token bucket holding kBurst tokens,
/// refilled at one token per second. Declared `static` at each CORRTRACK_LOG
/// expansion, so a hot failure path emits its first kBurst lines and then
/// one line per second, each carrying the count suppressed in between.
struct LogSite {
  static constexpr uint32_t kBurst = 8;
  std::atomic<int64_t> bucket_refill_ns{0};  ///< Next refill deadline.
  std::atomic<uint32_t> tokens{kBurst};
  std::atomic<uint64_t> suppressed{0};

  /// True when this occurrence may log; false when rate-limited (the
  /// occurrence is counted and reported on the next admitted line).
  bool Admit();
};

/// Formats and emits one log line: `[level subsystem] message` with a
/// ` (suppressed N)` suffix when the site dropped lines since the last
/// emission. printf-style; keep messages single-line.
void LogWrite(LogLevel level, const char* subsystem, uint64_t suppressed,
              const char* format, ...)
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 4, 5)))
#endif
    ;

}  // namespace corrtrack::telemetry

/// Leveled, rate-limited logging. `level_` is a LogLevel enumerator name
/// without the namespace (kWarn, kInfo, ...). Cheap when disabled: one
/// relaxed load and a compare.
#define CORRTRACK_LOG(level_, subsystem_, ...)                               \
  do {                                                                       \
    if (::corrtrack::telemetry::GlobalLogLevel() >=                          \
        ::corrtrack::telemetry::LogLevel::level_) {                          \
      static ::corrtrack::telemetry::LogSite corrtrack_log_site_;            \
      if (corrtrack_log_site_.Admit()) {                                     \
        ::corrtrack::telemetry::LogWrite(                                    \
            ::corrtrack::telemetry::LogLevel::level_, subsystem_,            \
            corrtrack_log_site_.suppressed.exchange(                         \
                0, std::memory_order_relaxed),                               \
            __VA_ARGS__);                                                    \
      }                                                                      \
    }                                                                        \
  } while (0)

#endif  // CORRTRACK_TELEMETRY_LOG_H_
