#include "obs/log.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>

#include "base/env.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vqdr::obs {

namespace {

constexpr std::uint64_t kDefaultRatePerSecond = 1000;

// Sink + rate-limit state, leaked to outlive static dtors. The admission
// path (level check) never takes the mutex; only emission does.
struct LogState {
  std::atomic<int> level{static_cast<int>(LogLevel::kOff)};
  std::atomic<std::uint64_t> rate_per_second{kDefaultRatePerSecond};
  std::atomic<std::uint64_t> dropped_total{0};

  std::mutex mu;
  // Token-bucket window: records admitted in the current wall-clock second.
  std::uint64_t window_second = 0;
  std::uint64_t window_count = 0;
  std::uint64_t dropped_since_last_emit = 0;
  std::ofstream file;
  bool file_open = false;
  std::shared_ptr<std::function<void(const std::string&)>> capture;

  static LogState& Get() {
    static LogState* s = new LogState;
    return *s;
  }
};

std::uint64_t UnixNowMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void SetLogLevel(LogLevel level) {
  LogState::Get().level.store(static_cast<int>(level),
                              std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(
      LogState::Get().level.load(std::memory_order_relaxed));
}

bool LogEnabled(LogLevel level) {
  return static_cast<int>(level) >=
         LogState::Get().level.load(std::memory_order_relaxed);
}

bool SetLogFilePath(const std::string& path) {
  LogState& s = LogState::Get();
  std::lock_guard<std::mutex> lock(s.mu);
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) return false;
  if (s.file_open) s.file.close();
  s.file = std::move(out);
  s.file_open = true;
  return true;
}

void CloseLogFile() {
  LogState& s = LogState::Get();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.file_open) {
    s.file.close();
    s.file_open = false;
  }
}

void SetLogCapture(std::function<void(const std::string&)> capture) {
  LogState& s = LogState::Get();
  std::lock_guard<std::mutex> lock(s.mu);
  if (capture) {
    s.capture = std::make_shared<std::function<void(const std::string&)>>(
        std::move(capture));
  } else {
    s.capture.reset();
  }
}

void SetLogRateLimit(std::uint64_t per_second) {
  LogState::Get().rate_per_second.store(per_second,
                                        std::memory_order_relaxed);
}

std::uint64_t LogDroppedCount() {
  return LogState::Get().dropped_total.load(std::memory_order_relaxed);
}

void InitLogFromEnv() {
  static const bool initialized = [] {
    if (const char* lvl = std::getenv("VQDR_LOG"); lvl != nullptr) {
      if (std::strcmp(lvl, "debug") == 0) SetLogLevel(LogLevel::kDebug);
      else if (std::strcmp(lvl, "info") == 0) SetLogLevel(LogLevel::kInfo);
      else if (std::strcmp(lvl, "warn") == 0) SetLogLevel(LogLevel::kWarn);
      else if (std::strcmp(lvl, "error") == 0) SetLogLevel(LogLevel::kError);
      else if (std::strcmp(lvl, "off") == 0) SetLogLevel(LogLevel::kOff);
    }
    if (const char* path = std::getenv("VQDR_LOG_FILE");
        path != nullptr && path[0] != '\0') {
      SetLogFilePath(path);
    }
    if (std::optional<std::uint64_t> rate = ParseEnvUint(
            std::getenv("VQDR_LOG_RATE"),
            std::numeric_limits<std::uint64_t>::max())) {
      SetLogRateLimit(*rate);
    }
    return true;
  }();
  (void)initialized;
}

LogRecord::LogRecord(LogLevel level, std::string_view event) {
  InitLogFromEnv();
  if (!LogEnabled(level)) return;

  LogState& s = LogState::Get();
  std::uint64_t now_ms = UnixNowMs();
  std::uint64_t dropped_before = 0;
  {
    // Token-bucket admission: at most rate_per_second records per
    // wall-clock second, process-wide. Dropped records are counted and
    // surfaced on the next admitted one.
    std::lock_guard<std::mutex> lock(s.mu);
    std::uint64_t rate = s.rate_per_second.load(std::memory_order_relaxed);
    std::uint64_t second = now_ms / 1000;
    if (second != s.window_second) {
      s.window_second = second;
      s.window_count = 0;
    }
    if (rate != 0 && s.window_count >= rate) {
      s.dropped_since_last_emit += 1;
      s.dropped_total.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    s.window_count += 1;
    dropped_before = s.dropped_since_last_emit;
    s.dropped_since_last_emit = 0;
  }

  live_ = true;
  level_ = level;
  line_.reserve(128);
  line_.append("{\"ts_ms\":");
  line_.append(std::to_string(now_ms));
  line_.append(",\"level\":");
  internal::AppendJsonString(LogLevelName(level), &line_);
  line_.append(",\"event\":");
  internal::AppendJsonString(event, &line_);
  line_.append(",\"op\":");
  line_.append(std::to_string(CurrentOpId()));
  line_.append(",\"tid\":");
  line_.append(std::to_string(CurrentTraceTid()));
  if (dropped_before != 0) {
    line_.append(",\"dropped\":");
    line_.append(std::to_string(dropped_before));
  }
}

LogRecord& LogRecord::Str(std::string_view key, std::string_view value) {
  if (!live_) return *this;
  line_.push_back(',');
  internal::AppendJsonString(key, &line_);
  line_.push_back(':');
  internal::AppendJsonString(value, &line_);
  return *this;
}

LogRecord& LogRecord::Num(std::string_view key, std::int64_t value) {
  if (!live_) return *this;
  line_.push_back(',');
  internal::AppendJsonString(key, &line_);
  line_.push_back(':');
  line_.append(std::to_string(value));
  return *this;
}

LogRecord& LogRecord::Num(std::string_view key, std::uint64_t value) {
  if (!live_) return *this;
  line_.push_back(',');
  internal::AppendJsonString(key, &line_);
  line_.push_back(':');
  line_.append(std::to_string(value));
  return *this;
}

LogRecord& LogRecord::Bool(std::string_view key, bool value) {
  if (!live_) return *this;
  line_.push_back(',');
  internal::AppendJsonString(key, &line_);
  line_.push_back(':');
  line_.append(value ? "true" : "false");
  return *this;
}

LogRecord::~LogRecord() {
  if (!live_) return;
  line_.push_back('}');
  LogState& s = LogState::Get();
  std::shared_ptr<std::function<void(const std::string&)>> capture;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    capture = s.capture;
    if (capture == nullptr) {
      if (s.file_open) {
        s.file << line_ << '\n';
        s.file.flush();
      } else {
        line_.push_back('\n');
        std::fwrite(line_.data(), 1, line_.size(), stderr);
      }
      return;
    }
  }
  (*capture)(line_);
}

}  // namespace vqdr::obs
