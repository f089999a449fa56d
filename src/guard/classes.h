#ifndef VQDR_GUARD_CLASSES_H_
#define VQDR_GUARD_CLASSES_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "guard/budget.h"

// Budget classes: named admission-control policies for multi-tenant callers
// (the vqdr-serve request path, DESIGN.md §13). A class bundles
//
//   * a per-request BudgetSpec CAP — whatever a request asks for is
//     tightened against it (TightenSpec: the tightest limit wins), so no
//     tenant can buy more work than its class allows;
//   * a concurrency limit — TryAcquire/Release slot accounting the admission
//     gate consults before a request ever reaches the dispatch queue;
//   * a backpressure hint — the retry_after_ms a structured `overloaded`
//     rejection carries back to the client.

namespace vqdr::guard {

/// The tightest-limit-wins combination of two specs, field by field: a
/// limited value always beats an unlimited one, and two limited values take
/// the minimum. Used to clamp a request's asked-for budget to its class cap.
BudgetSpec TightenSpec(const BudgetSpec& a, const BudgetSpec& b);

/// Declarative description of one budget class.
struct BudgetClassSpec {
  std::string name;

  /// Per-request ceiling; default-constructed = no ceiling.
  BudgetSpec cap;

  /// Requests of this class admitted concurrently. 0 = unlimited.
  int max_concurrent = 0;

  /// Backpressure hint carried by `overloaded` rejections of this class.
  std::uint64_t retry_after_ms = 25;
};

/// One live class: its spec plus in-flight slot accounting. Thread-safe.
class BudgetClass {
 public:
  explicit BudgetClass(BudgetClassSpec spec) : spec_(std::move(spec)) {}

  BudgetClass(const BudgetClass&) = delete;
  BudgetClass& operator=(const BudgetClass&) = delete;

  const BudgetClassSpec& spec() const { return spec_; }

  /// Claims an admission slot; false when the class is at max_concurrent.
  /// Every successful TryAcquire must be paired with exactly one Release.
  bool TryAcquire();
  void Release();

  int in_flight() const { return in_flight_.load(std::memory_order_relaxed); }

  /// Requests of this class ever admitted / rejected at the class gate.
  std::uint64_t admitted() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  std::uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }

  /// The spec a request is actually granted: its asked-for limits tightened
  /// against this class's cap.
  BudgetSpec Grant(const BudgetSpec& requested) const {
    return TightenSpec(requested, spec_.cap);
  }

 private:
  BudgetClassSpec spec_;
  std::atomic<int> in_flight_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
};

/// Name -> class registry. Always contains a "default" class (no caps,
/// unlimited concurrency) that unknown tenants resolve to; Define() replaces
/// it to impose a baseline policy. Lookup is lock-free after construction
/// only in the sense that classes never move — Define/Resolve take a mutex,
/// so define classes at startup, not per request.
class BudgetClassTable {
 public:
  BudgetClassTable();

  /// Adds or replaces a class definition. Replacing resets slot accounting.
  void Define(BudgetClassSpec spec);

  /// The class named `name`, or nullptr.
  BudgetClass* Find(const std::string& name);

  /// The class named `name`, falling back to "default" when absent (or when
  /// `name` is empty).
  BudgetClass& Resolve(const std::string& name);

  std::vector<std::string> Names() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<BudgetClass>> classes_;
};

}  // namespace vqdr::guard

#endif  // VQDR_GUARD_CLASSES_H_
