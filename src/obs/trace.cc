#include "obs/trace.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <mutex>

#include "obs/context.h"
#include "obs/metrics.h"

namespace vqdr::obs {

namespace {

struct TraceState {
  std::mutex mu;
  std::deque<TraceEvent> ring;
  std::ofstream sink;
  bool sink_open = false;
  std::chrono::steady_clock::time_point epoch;
  bool epoch_set = false;

  static TraceState& Get() {
    static TraceState* s = new TraceState;  // leaked: outlives static dtors
    return *s;
  }
};

// Single-branch gate read by every span constructor.
std::atomic<bool> g_enabled{false};

// Lazily applies VQDR_TRACE once per process, before the first gate read.
std::once_flag g_env_once;

void InitFromEnv() {
  const char* path = std::getenv("VQDR_TRACE");
  if (path != nullptr && path[0] != '\0') SetTraceSinkPath(path);
}

std::uint64_t MicrosSinceEpochLocked(TraceState& s) {
  auto now = std::chrono::steady_clock::now();
  if (!s.epoch_set) {
    s.epoch = now;
    s.epoch_set = true;
  }
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now - s.epoch)
          .count());
}

thread_local int t_depth = 0;

// Dense per-thread ids for trace grouping; 0 means "not assigned yet".
std::atomic<std::uint32_t> g_next_tid{1};
thread_local std::uint32_t t_tid = 0;

void WriteSinkLine(TraceState& s, const TraceEvent& e) {
  std::string line = "{\"name\":";
  internal::AppendJsonString(e.name, &line);
  if (e.has_arg) {
    line += ",\"arg\":";
    line += std::to_string(e.arg);
  }
  line += ",\"start_us\":";
  line += std::to_string(e.start_us);
  line += ",\"dur_us\":";
  line += std::to_string(e.dur_us);
  line += ",\"tid\":";
  line += std::to_string(e.tid);
  line += ",\"depth\":";
  line += std::to_string(e.depth);
  line += ",\"op\":";
  line += std::to_string(e.op);
  line += "}\n";
  s.sink << line;
  s.sink.flush();
}

}  // namespace

bool TracingEnabled() {
  std::call_once(g_env_once, InitFromEnv);
  return g_enabled.load(std::memory_order_relaxed);
}

void EnableTracing() { g_enabled.store(true, std::memory_order_relaxed); }

void DisableTracing() {
  g_enabled.store(false, std::memory_order_relaxed);
  CloseTraceSink();
}

bool SetTraceSinkPath(const std::string& path) {
  TraceState& s = TraceState::Get();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.sink_open) {
    s.sink.close();
    s.sink_open = false;
  }
  s.sink.open(path, std::ios::out | std::ios::trunc);
  if (!s.sink) return false;
  s.sink_open = true;
  g_enabled.store(true, std::memory_order_relaxed);
  return true;
}

void CloseTraceSink() {
  TraceState& s = TraceState::Get();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.sink_open) {
    s.sink.flush();
    s.sink.close();
    s.sink_open = false;
  }
}

std::uint32_t CurrentTraceTid() {
  if (t_tid == 0) t_tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return t_tid;
}

std::vector<TraceEvent> DrainTraceEvents() {
  TraceState& s = TraceState::Get();
  std::lock_guard<std::mutex> lock(s.mu);
  std::vector<TraceEvent> out(s.ring.begin(), s.ring.end());
  s.ring.clear();
  return out;
}

TraceSpan::TraceSpan(const char* name) : name_(name) { Begin(); }

TraceSpan::TraceSpan(const char* name, std::int64_t arg)
    : name_(name), arg_(arg), has_arg_(true) {
  Begin();
}

// Publishes the span to the live telemetry layer — the thread's span stack
// (read by registry/watchdog snapshots) and the op's current phase — when an
// operation is bound. Runs whether or not tracing records events: --ops and
// stall reports must show phases on untraced production runs. With no op
// bound the cost is one thread-local load.
void TraceSpan::LiveBegin() {
  internal::OpSlot* op = internal::t_current_op;
  if (op == nullptr) return;
  live_ = true;
  internal::ThreadSlot* slot = internal::EnsureThreadSlot();
  int d = slot->depth.load(std::memory_order_relaxed);
  if (d >= 0 && d < kThreadStackDepth) {
    slot->names[d].store(name_, std::memory_order_relaxed);
  }
  slot->depth.store(d + 1, std::memory_order_release);
  op->phase.store(name_, std::memory_order_relaxed);
}

void TraceSpan::LiveEnd() {
  internal::ThreadSlot* slot = internal::EnsureThreadSlot();
  int d = slot->depth.load(std::memory_order_relaxed) - 1;
  if (d < 0) d = 0;
  slot->depth.store(d, std::memory_order_release);
  // Phase falls back to the enclosing span on this thread, or the op label
  // at top level. Cross-thread phase writes race benignly (last writer
  // wins): the field means "an innermost live span", not a total order.
  internal::OpSlot* op = internal::t_current_op;
  if (op == nullptr) return;
  const char* parent = nullptr;
  if (d > 0 && d <= kThreadStackDepth) {
    parent = slot->names[d - 1].load(std::memory_order_relaxed);
  }
  op->phase.store(parent != nullptr ? parent : op->label,
                  std::memory_order_relaxed);
}

void TraceSpan::Begin() {
  LiveBegin();
  if (!TracingEnabled()) return;
  active_ = true;
  depth_ = t_depth++;
  TraceState& s = TraceState::Get();
  std::lock_guard<std::mutex> lock(s.mu);
  start_us_ = MicrosSinceEpochLocked(s);
}

TraceSpan::~TraceSpan() {
  if (live_) LiveEnd();
  if (!active_) return;
  --t_depth;
  TraceState& s = TraceState::Get();
  std::lock_guard<std::mutex> lock(s.mu);
  TraceEvent e;
  e.name = name_;
  e.arg = arg_;
  e.has_arg = has_arg_;
  e.start_us = start_us_;
  e.dur_us = MicrosSinceEpochLocked(s) - start_us_;
  e.tid = CurrentTraceTid();
  e.depth = depth_;
  e.op = CurrentOpId();
  if (s.ring.size() >= kTraceRingCapacity) s.ring.pop_front();
  if (s.sink_open) WriteSinkLine(s, e);
  s.ring.push_back(std::move(e));
}

}  // namespace vqdr::obs
