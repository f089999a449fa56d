#include "memo/store.h"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <sstream>

#include "base/check.h"
#include "base/env.h"
#include "memo/snapshot.h"
#include "obs/metrics.h"
#include "obs/obs_macros.h"

namespace vqdr::memo {

namespace {

constexpr std::size_t kDefaultCapacity = 8192;

std::size_t CapacityFromEnv() {
  const char* raw = std::getenv("VQDR_MEMO_CAPACITY");
  std::size_t parsed = ParseCapacityEnvValue(raw);
  return parsed == 0 ? kDefaultCapacity : parsed;
}

bool EnabledFromEnv() {
  const char* raw = std::getenv("VQDR_MEMO");
  if (raw == nullptr) return false;
  std::string v(raw);
  return !v.empty() && v != "0" && v != "off" && v != "OFF" && v != "false" &&
         v != "FALSE";
}

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> flag{EnabledFromEnv()};
  return flag;
}

// The store a live ScopedEnable substituted for the process store, or null.
std::atomic<Store*> g_scoped_store{nullptr};

}  // namespace

std::size_t ParseCapacityEnvValue(const char* raw) {
  return static_cast<std::size_t>(ParseEnvUint(raw, SIZE_MAX).value_or(0));
}

Store::Store(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  counts_.capacity = capacity_;
}

std::shared_ptr<const void> Store::GetErased(const std::string& key,
                                             const std::type_info& type) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end() || *it->second.type != type) {
    ++counts_.misses;
    VQDR_COUNTER_INC("memo.misses");
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  ++counts_.hits;
  VQDR_COUNTER_INC("memo.hits");
  return it->second.value;
}

void Store::PutErased(const std::string& key,
                      std::shared_ptr<const void> value,
                      const std::type_info& type) {
  VQDR_CHECK(value != nullptr) << "memo::Store::Put: null value";
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    if (*it->second.type == type) {
      // First install wins; the keying discipline guarantees any concurrent
      // computation of the same key produced an equivalent value.
      return;
    }
    // Cross-type collision: keeping the old entry would poison the slot
    // forever (a Get of the new type misses, a Get of the old type can
    // still hit, and every Put of the new type is dropped — the value is
    // recomputed on every call). Replace in place; the previous value stays
    // alive through any outstanding shared_ptr.
    it->second.value = std::move(value);
    it->second.type = &type;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    ++counts_.installs;
    VQDR_COUNTER_INC("memo.installs");
    VQDR_COUNTER_INC("memo.type_replacements");
    return;
  }
  if (map_.size() >= capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
    ++counts_.evictions;
    VQDR_COUNTER_INC("memo.evictions");
  }
  lru_.push_front(key);
  Entry entry;
  entry.value = std::move(value);
  entry.type = &type;
  entry.lru_it = lru_.begin();
  map_.emplace(key, std::move(entry));
  ++counts_.installs;
  VQDR_COUNTER_INC("memo.installs");
}

std::vector<Store::ErasedEntry> Store::ExportEntries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ErasedEntry> out;
  out.reserve(map_.size());
  // Walk the LRU list back to front so the export is oldest-first.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    const Entry& entry = map_.at(*it);
    out.push_back({*it, entry.value, entry.type});
  }
  return out;
}

StatsSnapshot Store::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  StatsSnapshot s = counts_;
  s.entries = map_.size();
  return s;
}

void Store::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
}

std::size_t Store::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

bool Enabled() { return EnabledFlag().load(std::memory_order_relaxed); }

void SetEnabled(bool on) {
  EnabledFlag().store(on, std::memory_order_relaxed);
}

ScopedEnable::ScopedEnable(bool on, Store* store)
    : previous_(Enabled()),
      previous_store_(g_scoped_store.load(std::memory_order_acquire)) {
  SetEnabled(on);
  if (store != nullptr) g_scoped_store.store(store, std::memory_order_release);
}

ScopedEnable::~ScopedEnable() {
  g_scoped_store.store(previous_store_, std::memory_order_release);
  SetEnabled(previous_);
}

Store& GlobalStore() {
  if (Store* scoped = g_scoped_store.load(std::memory_order_acquire)) {
    return *scoped;
  }
  static Store* store = [] {
    Store* s = new Store(CapacityFromEnv());
    // Warm boot: VQDR_MEMO_SNAPSHOT names an on-disk image to restore
    // before the first request touches the store (DESIGN.md §14). A
    // missing or corrupt file is a clean cold boot, never an error.
    LoadSnapshotFromEnv(*s);
    return s;
  }();
  return *store;
}

StatsSnapshot GlobalStats() { return GlobalStore().Stats(); }

}  // namespace vqdr::memo
