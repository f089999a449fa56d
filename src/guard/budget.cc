#include "guard/budget.h"

#include <algorithm>
#include <thread>

#include "base/env.h"
#include "guard/fault.h"

namespace vqdr::guard {

namespace {
// The (at most one) installed checkpoint observer. constinit so the probe
// is safe from any thread at any time, including before main.
constinit std::atomic<CheckpointObserver> g_checkpoint_observer{nullptr};
}  // namespace

void SetCheckpointObserver(CheckpointObserver observer) {
  g_checkpoint_observer.store(observer, std::memory_order_release);
}

Budget::Budget(const BudgetSpec& spec, Budget* parent)
    : parent_(parent), spec_(spec) {
  if (spec_.wall_ms >= 0) {
    has_deadline_ = true;
    // Clamped so now() + wall_ms cannot overflow into the past.
    std::uint64_t wall_ms = std::min(static_cast<std::uint64_t>(spec_.wall_ms),
                                     kMaxWaitMs);
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(wall_ms);
  }
}

Outcome Budget::Trip(Outcome o) {
  int expected = 0;
  int desired = static_cast<int>(o);
  if (stop_.compare_exchange_strong(expected, desired,
                                    std::memory_order_acq_rel)) {
    return o;
  }
  // Already stopped. An internal error still takes over a softer reason so
  // captured faults are never masked by a concurrent budget trip.
  if (o == Outcome::kInternalError) {
    stop_.store(desired, std::memory_order_release);
    return o;
  }
  return static_cast<Outcome>(expected);
}

Outcome Budget::Checkpoint(std::uint64_t steps) {
  int stopped = stop_.load(std::memory_order_relaxed);
  if (stopped != 0) return static_cast<Outcome>(stopped);

  std::uint64_t used =
      steps_.fetch_add(steps, std::memory_order_relaxed) + steps;

  if (CheckpointObserver observer =
          g_checkpoint_observer.load(std::memory_order_acquire)) {
    observer(steps);
  }

  if (spec_.max_steps != 0 && used > spec_.max_steps) {
    return Trip(Outcome::kStepBudgetExhausted);
  }

  if (CancelFaultDue(used)) return Trip(Outcome::kCancelled);
  // A stall fault sleeps this thread once, right here, and changes nothing
  // else — the injected hang the watchdog tests detect.
  if (std::uint64_t stall_ms = StallFaultDue(used); stall_ms != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
  }

  if (has_deadline_) {
    // Amortized deadline check: decrement a shared countdown and read the
    // clock only when it crosses zero. The reset races benignly across
    // workers — at worst the clock is read a little more often.
    std::uint64_t left =
        until_clock_check_.fetch_sub(steps, std::memory_order_relaxed);
    if (left <= steps) {
      until_clock_check_.store(kClockStride, std::memory_order_relaxed);
      if (std::chrono::steady_clock::now() >= deadline_) {
        return Trip(Outcome::kDeadlineExceeded);
      }
    }
  }

  // Charge the shared envelope last so a child trip above never double-trips
  // it; a stopped parent (its own limits, or a sibling-visible Cancel)
  // propagates into this budget sticky — the tightest limit wins.
  if (parent_ != nullptr) {
    Outcome up = parent_->Checkpoint(steps);
    if (up != Outcome::kComplete) return Trip(up);
  }
  return Outcome::kComplete;
}

Outcome Budget::NoteAtoms(std::uint64_t atoms) {
  int stopped = stop_.load(std::memory_order_relaxed);
  if (stopped != 0) return static_cast<Outcome>(stopped);
  std::uint64_t used =
      atoms_.fetch_add(atoms, std::memory_order_relaxed) + atoms;
  if (spec_.max_atoms != 0 && used > spec_.max_atoms) {
    return Trip(Outcome::kMemoryBudgetExhausted);
  }
  if (parent_ != nullptr) {
    Outcome up = parent_->NoteAtoms(atoms);
    if (up != Outcome::kComplete) return Trip(up);
  }
  return Outcome::kComplete;
}

}  // namespace vqdr::guard
