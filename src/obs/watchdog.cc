#include "obs/watchdog.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "base/env.h"
#include "obs/metrics.h"

namespace vqdr::obs {

namespace {

// What "progress" means for one op: any movement in these fields re-arms
// the stall trigger.
struct ProgressSig {
  std::uint64_t heartbeats = 0;
  std::uint64_t tasks = 0;
  std::uint64_t budget_steps = 0;
  std::string phase;

  bool operator==(const ProgressSig& o) const {
    return heartbeats == o.heartbeats && tasks == o.tasks &&
           budget_steps == o.budget_steps && phase == o.phase;
  }
};

struct OpWatch {
  ProgressSig sig;
  std::chrono::steady_clock::time_point last_change;
  bool reported = false;
};

struct WatchdogState {
  std::mutex mu;
  std::condition_variable cv;
  std::thread worker;
  bool running = false;
  bool stop = false;
  std::shared_ptr<std::function<void(const StallReport&)>> callback;
  std::atomic<std::uint64_t> reports{0};

  static WatchdogState& Get() {
    static WatchdogState* s = new WatchdogState;  // leaked
    return *s;
  }
};

std::uint64_t UnixNowMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

ProgressSig SigOf(const OpSnapshot& op) {
  ProgressSig s;
  s.heartbeats = op.heartbeats;
  s.tasks = op.tasks;
  s.budget_steps = op.budget.steps;
  s.phase = op.phase;
  return s;
}

void EmitReport(const StallReport& report) {
  WatchdogState& w = WatchdogState::Get();
  w.reports.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<std::function<void(const StallReport&)>> cb;
  {
    std::lock_guard<std::mutex> lock(w.mu);
    cb = w.callback;
  }
  if (cb != nullptr) {
    (*cb)(report);
    return;
  }
  std::string line = report.ToJson();
  line.push_back('\n');
  std::fwrite(line.data(), 1, line.size(), stderr);
  std::fflush(stderr);
}

void WatchLoop(std::uint64_t stall_ms, std::uint64_t poll_ms) {
  WatchdogState& w = WatchdogState::Get();
  std::map<OpId, OpWatch> watched;
  std::unique_lock<std::mutex> lock(w.mu);
  while (!w.stop) {
    w.cv.wait_for(lock, std::chrono::milliseconds(poll_ms),
                  [&] { return w.stop; });
    if (w.stop) break;
    lock.unlock();

    auto now = std::chrono::steady_clock::now();
    std::vector<OpSnapshot> ops = SnapshotOps();
    // Drop state for ops that finished.
    for (auto it = watched.begin(); it != watched.end();) {
      bool live = false;
      for (const OpSnapshot& op : ops) {
        if (op.id == it->first) {
          live = true;
          break;
        }
      }
      it = live ? std::next(it) : watched.erase(it);
    }
    for (const OpSnapshot& op : ops) {
      ProgressSig sig = SigOf(op);
      auto [it, fresh] = watched.try_emplace(op.id);
      OpWatch& watch = it->second;
      if (fresh || !(watch.sig == sig)) {
        watch.sig = std::move(sig);
        watch.last_change = now;
        watch.reported = false;
        continue;
      }
      if (watch.reported) continue;
      auto quiet = std::chrono::duration_cast<std::chrono::milliseconds>(
                       now - watch.last_change)
                       .count();
      if (quiet < static_cast<std::int64_t>(stall_ms)) continue;
      watch.reported = true;  // exactly one report per stall
      StallReport report;
      report.unix_ms = UnixNowMs();
      report.stall_ms = stall_ms;
      report.quiet_ms = static_cast<std::uint64_t>(quiet);
      report.op = op;
      report.all_ops = ops;
      report.threads = SnapshotThreadStacks();
      EmitReport(report);
    }

    lock.lock();
  }
}

}  // namespace

std::string StallReport::ToJson() const {
  std::string out;
  out.append("{\"event\":\"stall\",\"unix_ms\":");
  out.append(std::to_string(unix_ms));
  out.append(",\"stall_ms\":");
  out.append(std::to_string(stall_ms));
  out.append(",\"quiet_ms\":");
  out.append(std::to_string(quiet_ms));
  out.append(",\"op\":");
  internal::AppendOpJson(op, &out);
  out.append(",\"all_ops\":");
  out.append(OpsToJson(all_ops));
  out.append(",\"threads\":[");
  bool first = true;
  for (const ThreadStackSnapshot& t : threads) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"tid\":");
    out.append(std::to_string(t.tid));
    out.append(",\"op\":");
    out.append(std::to_string(t.op_id));
    out.append(",\"spans\":[");
    bool sfirst = true;
    for (const std::string& span : t.spans) {
      if (!sfirst) out.push_back(',');
      sfirst = false;
      internal::AppendJsonString(span, &out);
    }
    out.append("]}");
  }
  out.append("]}");
  return out;
}

bool StartWatchdog(std::uint64_t stall_ms, std::uint64_t poll_ms) {
  if (stall_ms == 0 || stall_ms > kMaxWaitMs || poll_ms > kMaxWaitMs) {
    return false;
  }
  if (poll_ms == 0) {
    poll_ms = stall_ms / 4;
    if (poll_ms < 10) poll_ms = 10;
    if (poll_ms > 1000) poll_ms = 1000;
  }
  WatchdogState& w = WatchdogState::Get();
  std::lock_guard<std::mutex> lock(w.mu);
  if (w.running) return false;
  w.running = true;
  w.stop = false;
  w.worker = std::thread(WatchLoop, stall_ms, poll_ms);
  return true;
}

void StopWatchdog() {
  WatchdogState& w = WatchdogState::Get();
  std::thread joinable;
  {
    std::lock_guard<std::mutex> lock(w.mu);
    if (!w.running) return;
    w.stop = true;
    w.cv.notify_all();
    joinable = std::move(w.worker);
    w.running = false;
  }
  joinable.join();
}

bool WatchdogRunning() {
  WatchdogState& w = WatchdogState::Get();
  std::lock_guard<std::mutex> lock(w.mu);
  return w.running;
}

void SetStallCallback(std::function<void(const StallReport&)> callback) {
  WatchdogState& w = WatchdogState::Get();
  std::lock_guard<std::mutex> lock(w.mu);
  if (callback) {
    w.callback = std::make_shared<std::function<void(const StallReport&)>>(
        std::move(callback));
  } else {
    w.callback.reset();
  }
}

std::uint64_t WatchdogStallReports() {
  return WatchdogState::Get().reports.load(std::memory_order_relaxed);
}

void InitWatchdogFromEnv() {
  static const bool initialized = [] {
    std::optional<std::uint64_t> ms =
        ParseEnvUint(std::getenv("VQDR_WATCHDOG_MS"), kMaxWaitMs);
    if (ms.has_value() && *ms > 0) StartWatchdog(*ms);
    return true;
  }();
  (void)initialized;
}

}  // namespace vqdr::obs
