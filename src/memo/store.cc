#include "memo/store.h"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
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

Store::Store(std::size_t capacity, std::size_t shards)
    : capacity_(capacity == 0 ? 1 : capacity),
      shard_count_(shards == 0 ? 1 : shards) {
  if (shard_count_ > capacity_) shard_count_ = capacity_;
  shards_ = std::make_unique<Shard[]>(shard_count_);
}

Store::Shard& Store::ShardFor(const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % shard_count_];
}

std::shared_ptr<const void> Store::GetErased(const std::string& key,
                                             const std::type_info& type) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end() || *it->second.type != type) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    VQDR_COUNTER_INC("memo.misses");
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  hits_.fetch_add(1, std::memory_order_relaxed);
  VQDR_COUNTER_INC("memo.hits");
  return it->second.value;
}

void Store::PutErased(const std::string& key,
                      std::shared_ptr<const void> value,
                      const std::type_info& type) {
  VQDR_CHECK(value != nullptr) << "memo::Store::Put: null value";
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
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
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    installs_.fetch_add(1, std::memory_order_relaxed);
    VQDR_COUNTER_INC("memo.installs");
    VQDR_COUNTER_INC("memo.type_replacements");
    return;
  }
  // Capacity is a global bound: evict from this shard's LRU tail until the
  // whole store has room (an unlucky hash may leave this shard empty while
  // others are full — then we insert anyway, a transient overshoot of at
  // most shard_count_ - 1 under concurrency).
  while (total_entries_.load(std::memory_order_relaxed) >= capacity_ &&
         !shard.lru.empty()) {
    const std::string& victim = shard.lru.back();
    shard.map.erase(victim);
    shard.lru.pop_back();
    total_entries_.fetch_sub(1, std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    VQDR_COUNTER_INC("memo.evictions");
  }
  shard.lru.push_front(key);
  Entry entry;
  entry.value = std::move(value);
  entry.type = &type;
  entry.lru_it = shard.lru.begin();
  shard.map.emplace(key, std::move(entry));
  total_entries_.fetch_add(1, std::memory_order_relaxed);
  installs_.fetch_add(1, std::memory_order_relaxed);
  VQDR_COUNTER_INC("memo.installs");
}

std::vector<Store::ErasedEntry> Store::ExportEntries() const {
  std::vector<ErasedEntry> out;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    const Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    // Walk the LRU list back to front so the export is oldest-first.
    for (auto it = shard.lru.rbegin(); it != shard.lru.rend(); ++it) {
      auto entry = shard.map.find(*it);
      if (entry == shard.map.end()) continue;
      out.push_back({entry->first, entry->second.value, entry->second.type});
    }
  }
  return out;
}

StatsSnapshot Store::Stats() const {
  StatsSnapshot s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.installs = installs_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.entries = size();
  s.capacity = capacity_;
  return s;
}

void Store::Clear() {
  for (std::size_t i = 0; i < shard_count_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    total_entries_.fetch_sub(shards_[i].map.size(),
                             std::memory_order_relaxed);
    shards_[i].map.clear();
    shards_[i].lru.clear();
  }
}

std::size_t Store::size() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    total += shards_[i].map.size();
  }
  return total;
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
