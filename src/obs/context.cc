#include "obs/context.h"

#include "guard/budget.h"
#include "obs/log.h"
#include "obs/registry.h"
#include "obs/watchdog.h"

namespace vqdr::obs {

namespace internal {

void BindOpToThread(OpSlot* op) {
  t_current_op = op;
  vqdr::obs::internal::t_op_cells = op != nullptr ? &op->cells : nullptr;
  EnsureThreadSlot()->op_id.store(op != nullptr ? op->id : 0,
                                  std::memory_order_relaxed);
}

namespace {

// Routes guard::Budget checkpoints into the bound op's heartbeat counter.
// Installed once, lazily, from the first OpScope: guard cannot link against
// obs (it sits below it), so the dependency is inverted through a function
// pointer guard exposes.
void InstallCheckpointObserver() {
  static const bool installed = [] {
    vqdr::guard::SetCheckpointObserver(
        [](std::uint64_t steps) { OpHeartbeat(steps); });
    return true;
  }();
  (void)installed;
}

// One guard check per call instead of four: the env-driven surfaces and
// the guard->obs heartbeat bridge all initialize on the first top-level
// operation of the process.
void EnsureTelemetryInit() {
  static const bool telemetry_initialized = [] {
    InstallCheckpointObserver();
    InitOpsDumpFromEnv();
    InitLogFromEnv();
    InitWatchdogFromEnv();
    return true;
  }();
  (void)telemetry_initialized;
}

}  // namespace

}  // namespace internal

OpScope::OpScope(OpKind kind, const char* label,
                 vqdr::guard::Budget* budget) {
  if (internal::t_current_op != nullptr) return;  // nested: passthrough
  internal::EnsureTelemetryInit();
  slot_ = internal::RegisterOp(kind, label, budget);
  internal::BindOpToThread(slot_.get());
  if (LogEnabled(LogLevel::kDebug)) {
    LogRecord(LogLevel::kDebug, "op.start")
        .Str("label", label)
        .Str("kind", OpKindName(kind));
  }
}

OpScope::OpScope(OpKind kind, std::string label,
                 vqdr::guard::Budget* budget) {
  if (internal::t_current_op != nullptr) return;  // nested: passthrough
  internal::EnsureTelemetryInit();
  slot_ = internal::RegisterOp(kind, std::move(label), budget);
  internal::BindOpToThread(slot_.get());
  if (LogEnabled(LogLevel::kDebug)) {
    LogRecord(LogLevel::kDebug, "op.start")
        .Str("label", slot_->label)
        .Str("kind", OpKindName(kind));
  }
}

OpScope::~OpScope() {
  if (slot_ == nullptr) return;
  // Emitted while still bound so the record carries this op's id. Gated so
  // a disabled logger skips the argument evaluation (clock read, atomic
  // loads) too, not just the formatting.
  if (LogEnabled(LogLevel::kInfo)) {
    LogRecord(LogLevel::kInfo, "op.done")
        .Str("label", slot_->label)
        .Str("kind", OpKindName(slot_->kind))
        .Num("age_us", TelemetryNowUs() - slot_->start_us)
        .Num("heartbeats", slot_->heartbeats.load(std::memory_order_relaxed))
        .Num("tasks", slot_->tasks.load(std::memory_order_relaxed));
  }
  internal::BindOpToThread(nullptr);
  internal::UnregisterOp(slot_);
}

OpTaskScope::OpTaskScope(const OpHandle& handle) : slot_(handle.slot_) {
  if (slot_ == nullptr) return;
  prev_ = internal::t_current_op;
  internal::BindOpToThread(slot_.get());
  slot_->tasks.fetch_add(1, std::memory_order_relaxed);
}

OpTaskScope::~OpTaskScope() {
  if (slot_ == nullptr) return;
  internal::BindOpToThread(prev_);
}

}  // namespace vqdr::obs
