#include "par/pool.h"

#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "base/env.h"
#include "guard/fault.h"
#include "obs/context.h"

namespace vqdr::par {

namespace {

// Identifies the worker a thread belongs to, so nested Submit() lands in the
// submitter's own deque. Distinct pools never share threads, so a plain
// pointer + index pair suffices.
struct WorkerIdentity {
  const void* pool = nullptr;
  int index = -1;
};
thread_local WorkerIdentity t_worker;

}  // namespace

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

ThreadPool::ThreadPool(int threads) {
  if (threads < 1) threads = 1;
  deques_.reserve(threads);
  for (int i = 0; i < threads; ++i) {
    deques_.push_back(std::make_unique<Deque>());
  }
  workers_.reserve(threads);
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true, std::memory_order_relaxed);
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  // Carry the submitter's operation context across the task boundary, so a
  // work-stolen chunk's spans, counters, heartbeats, and guard outcomes
  // attribute to the op that spawned it — not to the worker's previous op.
  if (obs::OpHandle op = obs::CurrentOpHandle()) {
    task = [op = std::move(op), inner = std::move(task)] {
      obs::OpTaskScope bind(op);
      inner();
    };
  }
  int target;
  if (t_worker.pool == this) {
    target = t_worker.index;  // owner's deque: LIFO for itself
  } else {
    target = static_cast<int>(next_deque_.fetch_add(
                 1, std::memory_order_relaxed) %
             deques_.size());
  }
  pending_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(deques_[target]->mu);
    deques_[target]->tasks.push_back(std::move(task));
  }
  queued_.fetch_add(1, std::memory_order_relaxed);
  {
    // Taking mu_ serializes against workers deciding to sleep, so a task
    // pushed while a worker checks its predicate cannot miss the wakeup.
    std::lock_guard<std::mutex> lock(mu_);
  }
  work_cv_.notify_one();
}

bool ThreadPool::TryRunOne(int self) {
  std::function<void()> task;
  const int n = static_cast<int>(deques_.size());
  // Own deque first (back = most recently pushed), then steal from the
  // front of the others in cyclic order.
  {
    Deque& own = *deques_[self];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.back());
      own.tasks.pop_back();
    }
  }
  if (!task) {
    for (int step = 1; step < n && !task; ++step) {
      Deque& victim = *deques_[(self + step) % n];
      std::lock_guard<std::mutex> lock(victim.mu);
      if (!victim.tasks.empty()) {
        task = std::move(victim.tasks.front());
        victim.tasks.pop_front();
      }
    }
  }
  if (!task) return false;

  queued_.fetch_sub(1, std::memory_order_relaxed);
  try {
    VQDR_FAULT_TASK("pool.task");
    task();
  } catch (...) {
    // A throwing task must not escape into the worker loop (std::terminate)
    // or stall the drain: record it and keep going. Wait() still sees the
    // pending_ decrement below, and the caller reads error_count() after.
    {
      std::lock_guard<std::mutex> lock(error_mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    error_count_.fetch_add(1, std::memory_order_release);
  }
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(mu_);
    idle_cv_.notify_all();
  }
  return true;
}

void ThreadPool::WorkerLoop(int self) {
  t_worker.pool = this;
  t_worker.index = self;
  for (;;) {
    if (TryRunOne(self)) continue;
    std::unique_lock<std::mutex> lock(mu_);
    work_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_relaxed) ||
             queued_.load(std::memory_order_relaxed) > 0;
    });
    if (stop_.load(std::memory_order_relaxed) &&
        queued_.load(std::memory_order_relaxed) == 0) {
      return;
    }
  }
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

std::exception_ptr ThreadPool::TakeFirstError() {
  std::lock_guard<std::mutex> lock(error_mu_);
  std::exception_ptr e = first_error_;
  first_error_ = nullptr;
  error_count_.store(0, std::memory_order_release);
  return e;
}

void ParallelForChunks(ThreadPool& pool, std::uint64_t num_chunks,
                       const std::function<void(std::uint64_t)>& body) {
  for (std::uint64_t c = 0; c < num_chunks; ++c) {
    pool.Submit([&body, c] { body(c); });
  }
  pool.Wait();
}

}  // namespace vqdr::par
