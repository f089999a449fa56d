#include "par/pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <optional>
#include <system_error>
#include <thread>
#include <vector>

#include "base/env.h"
#include "guard/fault.h"
#include "obs/context.h"

namespace vqdr::par {

int DefaultThreads() {
  std::optional<std::uint64_t> env = ParseEnvUint(
      std::getenv("VQDR_THREADS"), std::numeric_limits<int>::max());
  if (env.has_value() && *env > 0) return static_cast<int>(*env);
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int ResolveThreads(int requested) {
  if (requested == 0) return DefaultThreads();
  return requested < 1 ? 1 : requested;
}

std::uint64_t ParallelForChunks(int threads, std::uint64_t num_chunks,
                                const std::function<void(std::uint64_t)>& body,
                                std::exception_ptr* first_error) {
  // Carry the caller's operation context into every chunk, so a chunk's
  // spans, counters, heartbeats and guard outcomes attribute to the op that
  // called, whichever thread runs it.
  const obs::OpHandle op = obs::CurrentOpHandle();
  std::atomic<std::uint64_t> cursor{0};
  std::mutex error_mu;
  std::uint64_t errors = 0;
  std::exception_ptr first;

  auto drain = [&] {
    for (std::uint64_t c = cursor.fetch_add(1, std::memory_order_relaxed);
         c < num_chunks; c = cursor.fetch_add(1, std::memory_order_relaxed)) {
      try {
        obs::OpTaskScope bind(op);
        VQDR_FAULT_TASK("pool.task");
        body(c);
      } catch (...) {
        // A throwing chunk must not escape its thread (std::terminate) or
        // stop the others: record it and keep taking chunks.
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first) first = std::current_exception();
        ++errors;
      }
    }
  };

  const std::uint64_t helpers =
      threads > 1 && num_chunks > 1
          ? std::min<std::uint64_t>(static_cast<std::uint64_t>(threads),
                                    num_chunks) - 1
          : 0;
  std::vector<std::thread> spawned;
  spawned.reserve(helpers);
  for (std::uint64_t i = 0; i < helpers; ++i) {
    try {
      spawned.emplace_back(drain);
    } catch (const std::system_error&) {
      break;  // out of threads: the ones running, and the caller, drain it all
    }
  }
  drain();
  for (std::thread& t : spawned) t.join();
  if (first_error != nullptr) *first_error = first;
  return errors;
}

}  // namespace vqdr::par
