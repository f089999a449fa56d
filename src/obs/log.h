#ifndef VQDR_OBS_LOG_H_
#define VQDR_OBS_LOG_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

// Leveled, rate-limited structured logging for the solver stack (DESIGN.md
// §11). One JSONL record per line, every record stamped with the in-flight
// operation id (obs/context.h) so log lines join against the op registry,
// trace spans, and stall reports:
//
//   obs::LogRecord(obs::LogLevel::kInfo, "search.start")
//       .Num("max_size", opts.max_instance_size)
//       .Str("outcome", "running");   // emits on destruction
//
//   {"ts_ms":1754650000123,"level":"info","event":"search.start","op":7,
//    "tid":1,"max_size":3,"outcome":"running"}
//
// Logging is OFF by default: a disabled-level record costs one relaxed load
// and no formatting. Enable with VQDR_LOG=debug|info|warn|error (stderr
// sink), VQDR_LOG_FILE=<path> (file sink), or programmatically. A global
// token bucket (VQDR_LOG_RATE records/second, default 1000) sheds load
// under log storms; the first record admitted after a gap reports how many
// were dropped.

namespace vqdr::obs {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  /// Sentinel: logging disabled (the default).
  kOff = 4,
};

/// Stable lowercase name ("debug", "info", ...).
inline const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "off";
}

/// Minimum level that emits; kOff disables logging entirely.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

/// True when a record at `level` would emit. One relaxed atomic load.
bool LogEnabled(LogLevel level);

/// Opens (truncating) a JSONL log sink at `path`; records go there instead
/// of stderr. Returns false if the file cannot be opened.
bool SetLogFilePath(const std::string& path);

/// Closes the file sink; records fall back to stderr.
void CloseLogFile();

/// Test seam: when set, finished lines go to `capture` INSTEAD of any sink.
/// Pass nullptr to restore normal sinking. The callback must be thread-safe.
void SetLogCapture(std::function<void(const std::string&)> capture);

/// Global admission rate in records/second (token bucket); 0 = unlimited.
void SetLogRateLimit(std::uint64_t per_second);

/// Records dropped by the rate limiter since process start.
std::uint64_t LogDroppedCount();

/// Reads VQDR_LOG (level), VQDR_LOG_FILE (sink path), and VQDR_LOG_RATE
/// (records/second; a value ParseEnvUint rejects keeps the default) once.
/// Called lazily from the first record and from the first OpScope; exposed
/// for tools.
void InitLogFromEnv();

/// One structured record, emitted on destruction. Field setters return
/// *this for chaining and are no-ops when the record's level is disabled
/// (the common case costs one load in the constructor, nothing after).
class LogRecord {
 public:
  LogRecord(LogLevel level, std::string_view event);
  ~LogRecord();

  LogRecord(const LogRecord&) = delete;
  LogRecord& operator=(const LogRecord&) = delete;

  LogRecord& Str(std::string_view key, std::string_view value);
  LogRecord& Num(std::string_view key, std::int64_t value);
  LogRecord& Num(std::string_view key, std::uint64_t value);
  // Disambiguators so plain int/unsigned literals pick a lane.
  LogRecord& Num(std::string_view key, int value) {
    return Num(key, static_cast<std::int64_t>(value));
  }
  LogRecord& Num(std::string_view key, unsigned value) {
    return Num(key, static_cast<std::uint64_t>(value));
  }
  LogRecord& Bool(std::string_view key, bool value);

 private:
  bool live_ = false;
  LogLevel level_ = LogLevel::kOff;
  std::string line_;
};

}  // namespace vqdr::obs

#endif  // VQDR_OBS_LOG_H_
