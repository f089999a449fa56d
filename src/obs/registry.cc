#include "obs/registry.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>

#include "base/env.h"
#include "guard/budget.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vqdr::obs {

namespace {

// Registry state, leaked so in-flight ops and thread slots stay valid
// through static destruction. Lock order where both are needed: this mutex
// first, then the metrics registry mutex (via OpCounterNames) — nothing in
// obs/metrics calls back into here.
struct RegState {
  std::mutex mu;
  OpId next_id = 1;
  // Live ops as an intrusive doubly-linked list in id (registration) order:
  // head oldest, tail newest. No per-op allocation on the register path —
  // OpScope keeps every linked slot alive until it is unlinked.
  internal::OpSlot* head = nullptr;
  internal::OpSlot* tail = nullptr;
  std::deque<OpSnapshot> completed;  // newest at front
  std::size_t keep_completed = 0;
  // Slots of the live threads that opened a span or bound an op, and the
  // slots of exited threads kept for reuse. Never freed: a slot is only
  // read under this mutex while listed in `threads`.
  std::vector<internal::ThreadSlot*> threads;
  std::vector<internal::ThreadSlot*> free_threads;

  static RegState& Get() {
    static RegState* s = new RegState;
    return *s;
  }
};

// Periodic stderr dumper. Separate mutex: Start/Stop must not contend with
// the snapshot path.
struct DumpState {
  std::mutex mu;
  std::condition_variable cv;
  std::thread worker;
  bool running = false;
  bool stop = false;

  static DumpState& Get() {
    static DumpState* s = new DumpState;
    return *s;
  }
};

std::uint64_t UnixNowMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

// Builds the externally visible snapshot of one live slot. Caller holds the
// registry mutex (which is what keeps slot->budget from dangling).
OpSnapshot SnapshotSlot(const internal::OpSlot& slot, std::uint64_t now_us,
                        const std::vector<std::string>& counter_names) {
  OpSnapshot s;
  s.id = slot.id;
  s.kind = slot.kind;
  s.label = slot.label;
  const char* phase = slot.phase.load(std::memory_order_relaxed);
  s.phase = phase != nullptr ? phase : "";
  s.start_us = slot.start_us;
  s.age_us = now_us >= slot.start_us ? now_us - slot.start_us : 0;
  s.heartbeats = slot.heartbeats.load(std::memory_order_relaxed);
  s.tasks = slot.tasks.load(std::memory_order_relaxed);
  if (vqdr::guard::Budget* b = slot.budget.load(std::memory_order_relaxed)) {
    s.budget.present = true;
    s.budget.stopped = b->Stopped();
    s.budget.steps = b->steps_used();
    s.budget.max_steps = b->spec().max_steps;
  }
  std::size_t n = counter_names.size();
  if (n > kMaxOpCounters) n = kMaxOpCounters;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t v = slot.cells.cells[i].load(std::memory_order_relaxed);
    if (v != 0) s.counters.emplace(counter_names[i], v);
  }
  return s;
}

}  // namespace

namespace internal {

void AppendOpJson(const OpSnapshot& op, std::string* out) {
  out->append("{\"op\":");
  out->append(std::to_string(op.id));
  out->append(",\"kind\":");
  internal::AppendJsonString(OpKindName(op.kind), out);
  out->append(",\"label\":");
  internal::AppendJsonString(op.label, out);
  out->append(",\"phase\":");
  internal::AppendJsonString(op.phase, out);
  out->append(",\"age_us\":");
  out->append(std::to_string(op.age_us));
  out->append(",\"heartbeats\":");
  out->append(std::to_string(op.heartbeats));
  out->append(",\"tasks\":");
  out->append(std::to_string(op.tasks));
  if (op.done) out->append(",\"done\":true");
  if (op.budget.present) {
    out->append(",\"budget\":{\"stopped\":");
    out->append(op.budget.stopped ? "true" : "false");
    out->append(",\"steps\":");
    out->append(std::to_string(op.budget.steps));
    out->append(",\"max_steps\":");
    out->append(std::to_string(op.budget.max_steps));
    out->append("}");
  }
  out->append(",\"counters\":{");
  bool first = true;
  for (const auto& [name, v] : op.counters) {
    if (!first) out->push_back(',');
    first = false;
    internal::AppendJsonString(name, out);
    out->push_back(':');
    out->append(std::to_string(v));
  }
  out->append("}}");
}

}  // namespace internal

namespace {

void EmitOpsDumpLine() {
  std::string line = OpsToJson(SnapshotOps(), UnixNowMs());
  line.push_back('\n');
  std::fwrite(line.data(), 1, line.size(), stderr);
  std::fflush(stderr);
}

void DumpLoop(std::uint64_t interval_ms) {
  DumpState& d = DumpState::Get();
  std::unique_lock<std::mutex> lock(d.mu);
  while (!d.stop) {
    // Emit before waiting so even a short-lived process dumps its table at
    // least once.
    lock.unlock();
    EmitOpsDumpLine();
    lock.lock();
    d.cv.wait_for(lock, std::chrono::milliseconds(interval_ms),
                  [&] { return d.stop; });
  }
}

}  // namespace

std::uint64_t TelemetryNowUs() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

namespace internal {

namespace {

// Hands the calling thread's slot back for reuse when the thread exits, so
// a server that starts a thread per connection lists (and keeps) one slot
// per live thread, not one per thread it ever started.
struct ThreadSlotLease {
  ThreadSlot* slot = nullptr;
  ~ThreadSlotLease() {
    if (slot == nullptr) return;
    RegState& r = RegState::Get();
    std::lock_guard<std::mutex> lock(r.mu);
    r.threads.erase(std::find(r.threads.begin(), r.threads.end(), slot));
    r.free_threads.push_back(slot);
  }
};

}  // namespace

ThreadSlot* EnsureThreadSlot() {
  thread_local ThreadSlotLease lease;
  if (lease.slot != nullptr) return lease.slot;
  RegState& r = RegState::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  ThreadSlot* slot;
  if (r.free_threads.empty()) {
    slot = new ThreadSlot;
  } else {
    slot = r.free_threads.back();
    r.free_threads.pop_back();
    slot->op_id.store(0, std::memory_order_relaxed);
    slot->depth.store(0, std::memory_order_relaxed);
  }
  slot->tid = CurrentTraceTid();
  r.threads.push_back(slot);
  lease.slot = slot;
  return slot;
}

// One cached slot per thread so the common serial pattern — one top-level
// engine call after another on the same thread — reuses a single OpSlot
// instead of allocating per call. Reuse is only safe when nothing else still
// references the slot (use_count()==1: just this cache); pool-task handles
// or a watchdog holding the old op force a fresh allocation.
thread_local std::shared_ptr<OpSlot> t_slot_cache;

namespace {

// Fetches (or cache-reuses) a zeroed slot; the caller sets kind/label and
// finishes registration via LinkOp.
std::shared_ptr<OpSlot> AcquireOpSlot() {
  std::shared_ptr<OpSlot> slot;
  if (t_slot_cache != nullptr && t_slot_cache.use_count() == 1) {
    slot = t_slot_cache;
    slot->heartbeats.store(0, std::memory_order_relaxed);
    slot->tasks.store(0, std::memory_order_relaxed);
    for (auto& cell : slot->cells.cells) {
      cell.store(0, std::memory_order_relaxed);
    }
  } else {
    slot = std::make_shared<OpSlot>();
    t_slot_cache = slot;
  }
  return slot;
}

void LinkOp(const std::shared_ptr<OpSlot>& slot, OpKind kind,
            vqdr::guard::Budget* budget) {
  slot->kind = kind;
  slot->start_us = TelemetryNowUs();
  slot->phase.store(slot->label, std::memory_order_relaxed);
  slot->budget.store(budget, std::memory_order_relaxed);
  slot->reg_prev = nullptr;
  slot->reg_next = nullptr;
  RegState& r = RegState::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  slot->id = r.next_id++;
  slot->reg_prev = r.tail;
  if (r.tail != nullptr) {
    r.tail->reg_next = slot.get();
  } else {
    r.head = slot.get();
  }
  r.tail = slot.get();
}

}  // namespace

std::shared_ptr<OpSlot> RegisterOp(OpKind kind, const char* label,
                                   vqdr::guard::Budget* budget) {
  std::shared_ptr<OpSlot> slot = AcquireOpSlot();
  slot->owned_label.clear();
  slot->label = label != nullptr ? label : "";
  LinkOp(slot, kind, budget);
  return slot;
}

std::shared_ptr<OpSlot> RegisterOp(OpKind kind, std::string label,
                                   vqdr::guard::Budget* budget) {
  std::shared_ptr<OpSlot> slot = AcquireOpSlot();
  // The owned string backs both label and the initial phase pointer; it is
  // written only here, before the slot is linked and becomes visible to
  // snapshot readers.
  slot->owned_label = std::move(label);
  slot->label = slot->owned_label.c_str();
  LinkOp(slot, kind, budget);
  return slot;
}

void UnregisterOp(const std::shared_ptr<OpSlot>& op) {
  if (op == nullptr) return;
  RegState& r = RegState::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  if (r.keep_completed > 0) {
    // Counter names are only needed when a completed snapshot is kept;
    // fetching them here (r.mu then metrics mutex) follows the lock order
    // documented on RegState.
    OpSnapshot s = SnapshotSlot(*op, TelemetryNowUs(), OpCounterNames());
    s.done = true;
    r.completed.push_front(std::move(s));
    while (r.completed.size() > r.keep_completed) r.completed.pop_back();
  }
  // Null the caller-owned budget under the mutex: snapshots read it under
  // the same mutex, so none can observe it after the scope returns.
  op->budget.store(nullptr, std::memory_order_relaxed);
  OpSlot* slot = op.get();
  if (slot->reg_prev != nullptr) {
    slot->reg_prev->reg_next = slot->reg_next;
  } else {
    r.head = slot->reg_next;
  }
  if (slot->reg_next != nullptr) {
    slot->reg_next->reg_prev = slot->reg_prev;
  } else {
    r.tail = slot->reg_prev;
  }
  slot->reg_prev = nullptr;
  slot->reg_next = nullptr;
}

}  // namespace internal

std::vector<OpSnapshot> SnapshotOps() {
  std::vector<std::string> names = OpCounterNames();
  std::uint64_t now_us = TelemetryNowUs();
  RegState& r = RegState::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<OpSnapshot> out;
  for (internal::OpSlot* slot = r.head; slot != nullptr;
       slot = slot->reg_next) {
    out.push_back(SnapshotSlot(*slot, now_us, names));
  }
  return out;
}

OpSnapshot SnapshotOp(OpId id) {
  std::vector<std::string> names = OpCounterNames();
  std::uint64_t now_us = TelemetryNowUs();
  RegState& r = RegState::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  for (internal::OpSlot* slot = r.head; slot != nullptr;
       slot = slot->reg_next) {
    if (slot->id == id) return SnapshotSlot(*slot, now_us, names);
  }
  return {};
}

std::vector<ThreadStackSnapshot> SnapshotThreadStacks() {
  RegState& r = RegState::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<ThreadStackSnapshot> out;
  out.reserve(r.threads.size());
  for (internal::ThreadSlot* t : r.threads) {
    ThreadStackSnapshot s;
    s.tid = t->tid;
    s.op_id = t->op_id.load(std::memory_order_relaxed);
    int depth = t->depth.load(std::memory_order_acquire);
    if (depth > kThreadStackDepth) depth = kThreadStackDepth;
    for (int i = 0; i < depth; ++i) {
      const char* name = t->names[i].load(std::memory_order_relaxed);
      s.spans.emplace_back(name != nullptr ? name : "");
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const ThreadStackSnapshot& a, const ThreadStackSnapshot& b) {
              return a.tid < b.tid;
            });
  return out;
}

void SetKeepCompletedOps(std::size_t n) {
  RegState& r = RegState::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  r.keep_completed = n;
  while (r.completed.size() > n) r.completed.pop_back();
}

std::vector<OpSnapshot> RecentCompletedOps() {
  RegState& r = RegState::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  return std::vector<OpSnapshot>(r.completed.begin(), r.completed.end());
}

std::string OpsToJson(const std::vector<OpSnapshot>& ops,
                      std::uint64_t unix_ms) {
  std::string out;
  if (unix_ms != 0) {
    out.append("{\"event\":\"ops\",\"unix_ms\":");
    out.append(std::to_string(unix_ms));
    out.append(",\"ops\":");
  }
  out.push_back('[');
  bool first = true;
  for (const OpSnapshot& op : ops) {
    if (!first) out.push_back(',');
    first = false;
    internal::AppendOpJson(op, &out);
  }
  out.push_back(']');
  if (unix_ms != 0) out.push_back('}');
  return out;
}

std::string RenderOpsText(const std::vector<OpSnapshot>& ops) {
  std::string out;
  if (ops.empty()) return "ops: none in flight\n";
  char buf[256];
  for (const OpSnapshot& op : ops) {
    std::snprintf(buf, sizeof(buf),
                  "op %llu %s [%s] phase=%s age=%.1fms heartbeats=%llu",
                  static_cast<unsigned long long>(op.id), op.label.c_str(),
                  OpKindName(op.kind), op.phase.c_str(),
                  static_cast<double>(op.age_us) / 1000.0,
                  static_cast<unsigned long long>(op.heartbeats));
    out.append(buf);
    if (op.tasks != 0) {
      std::snprintf(buf, sizeof(buf), " tasks=%llu",
                    static_cast<unsigned long long>(op.tasks));
      out.append(buf);
    }
    if (op.budget.present) {
      std::snprintf(buf, sizeof(buf), " budget=%llu/%llu%s",
                    static_cast<unsigned long long>(op.budget.steps),
                    static_cast<unsigned long long>(op.budget.max_steps),
                    op.budget.stopped ? " STOPPED" : "");
      out.append(buf);
    }
    if (op.done) out.append(" done");
    out.push_back('\n');
    for (const auto& [name, v] : op.counters) {
      std::snprintf(buf, sizeof(buf), "  %s=%llu\n", name.c_str(),
                    static_cast<unsigned long long>(v));
      out.append(buf);
    }
  }
  return out;
}

bool StartOpsDump(std::uint64_t interval_ms) {
  if (interval_ms == 0 || interval_ms > kMaxWaitMs) return false;
  DumpState& d = DumpState::Get();
  std::lock_guard<std::mutex> lock(d.mu);
  if (d.running) return false;
  d.running = true;
  d.stop = false;
  d.worker = std::thread(DumpLoop, interval_ms);
  // A process can finish between the worker's ticks (or before its first
  // schedule); a final main-thread dump guarantees every dump-enabled run
  // emits at least one complete table.
  static const bool at_exit = [] {
    std::atexit([] {
      std::lock_guard<std::mutex> lock(DumpState::Get().mu);
      if (DumpState::Get().running) EmitOpsDumpLine();
    });
    return true;
  }();
  (void)at_exit;
  return true;
}

void StopOpsDump() {
  DumpState& d = DumpState::Get();
  std::thread joinable;
  {
    std::lock_guard<std::mutex> lock(d.mu);
    if (!d.running) return;
    d.stop = true;
    d.cv.notify_all();
    joinable = std::move(d.worker);
    d.running = false;
  }
  joinable.join();
}

void InitOpsDumpFromEnv() {
  static const bool initialized = [] {
    std::optional<std::uint64_t> ms =
        ParseEnvUint(std::getenv("VQDR_OPS_DUMP_MS"), kMaxWaitMs);
    if (ms.has_value() && *ms > 0) StartOpsDump(*ms);
    return true;
  }();
  (void)initialized;
}

}  // namespace vqdr::obs
