#include "guard/fault.h"

#include <atomic>
#include <cstring>
#include <string>

namespace vqdr::guard {

namespace {

// One armed fault at a time. The config fields (kind/site/at_hit) are
// written only while disarmed and published by the release store of
// `armed`; probes read them after an acquire load, so the seam is
// TSAN-clean without a lock on the probe path.
struct Injector {
  std::atomic<bool> armed{false};
  FaultKind kind{FaultKind::kAllocFailure};
  std::string site;
  std::uint64_t at_hit = 0;
  std::uint64_t stall_ms = 0;  // kStall only: how long the hit sleeps
  std::atomic<std::uint64_t> probes{0};
  std::atomic<bool> fired{false};
};

Injector g_injector;

// Returns true when this probe is the armed fault's firing hit.
bool ShouldFire(FaultKind kind, const char* site) {
  Injector& g = g_injector;
  if (!g.armed.load(std::memory_order_acquire)) return false;
  if (g.kind != kind) return false;
  if (!g.site.empty() &&
      (site == nullptr || std::strcmp(site, g.site.c_str()) != 0)) {
    return false;
  }
  std::uint64_t hit = g.probes.fetch_add(1, std::memory_order_relaxed) + 1;
  if (hit != g.at_hit) return false;
  g.fired.store(true, std::memory_order_relaxed);
  return true;
}

}  // namespace

void ArmFault(FaultKind kind, const char* site, std::uint64_t at_hit) {
  Injector& g = g_injector;
  g.armed.store(false, std::memory_order_release);
  g.kind = kind;
  g.site = site == nullptr ? "" : site;
  g.at_hit = at_hit == 0 ? 1 : at_hit;
  g.probes.store(0, std::memory_order_relaxed);
  g.fired.store(false, std::memory_order_relaxed);
  g.armed.store(true, std::memory_order_release);
}

void DisarmFaults() {
  g_injector.armed.store(false, std::memory_order_release);
}

bool FaultsArmed() {
  return g_injector.armed.load(std::memory_order_acquire);
}

std::uint64_t FaultProbes() {
  return g_injector.probes.load(std::memory_order_relaxed);
}

bool FaultFired() {
  return g_injector.fired.load(std::memory_order_relaxed);
}

void MaybeInjectThrow(FaultKind kind, const char* site) {
  if (!ShouldFire(kind, site)) return;
  if (kind == FaultKind::kAllocFailure) throw InjectedAllocFailure();
  throw InjectedTaskError();
}

bool CancelFaultDue(std::uint64_t steps_reached) {
  Injector& g = g_injector;
  if (!g.armed.load(std::memory_order_acquire)) return false;
  if (g.kind != FaultKind::kCancel) return false;
  if (steps_reached < g.at_hit) return false;
  bool expected = false;
  return g.fired.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel);
}

void ArmStallFault(std::uint64_t at_step, std::uint64_t sleep_ms) {
  ArmFault(FaultKind::kStall, nullptr, at_step);
  g_injector.stall_ms = sleep_ms;
}

std::uint64_t StallFaultDue(std::uint64_t steps_reached) {
  Injector& g = g_injector;
  if (!g.armed.load(std::memory_order_acquire)) return 0;
  if (g.kind != FaultKind::kStall) return 0;
  if (steps_reached < g.at_hit) return 0;
  bool expected = false;
  if (!g.fired.compare_exchange_strong(expected, true,
                                       std::memory_order_acq_rel)) {
    return 0;
  }
  return g.stall_ms;
}

}  // namespace vqdr::guard
