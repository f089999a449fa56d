#ifndef VQDR_PAR_POOL_H_
#define VQDR_PAR_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

// Work-stealing thread pool for the bounded counterexample and
// monotonicity searches (core/finite_search), the one fan-out that measures
// faster than its serial sweep. Design constraints, in order:
//
//  1. *Deterministic results*: the pool only schedules; every parallel
//     algorithm built on it (par/shard.h) merges worker output in a fixed
//     order, so verdicts and counterexamples never depend on scheduling.
//  2. *TSAN-clean*: per-worker deques are mutex-guarded (owner pushes/pops
//     at the back, thieves steal from the front); no lock-free cleverness.
//  3. *Bounded lifecycle*: pools are created per parallel call and joined on
//     destruction — no process-global threads to leak into tests.

namespace vqdr::par {

/// The default worker count for `threads = 0` requests: the VQDR_THREADS
/// environment variable when set to a positive integer that fits an int,
/// otherwise std::thread::hardware_concurrency(). Always >= 1.
int DefaultThreads();

/// The worker count for EnumerationOptions::threads, the one thread-count
/// option in the engines: 0 asks for DefaultThreads(), a negative request
/// runs one worker (serially), and N >= 1 is taken as is. Always >= 1.
int ResolveThreads(int requested);

/// A fixed-size work-stealing pool. Tasks submitted from outside the pool
/// are distributed round-robin across worker deques; tasks submitted from
/// inside a worker go to that worker's own deque (LIFO for the owner, FIFO
/// for thieves — the classic work-stealing discipline). Destruction drains
/// every remaining task and joins the workers.
class ThreadPool {
 public:
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task. Thread-safe; callable from worker threads (nested
  /// submission is how recursive splits would land).
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task (including tasks submitted by tasks)
  /// has finished. Callable only from outside the pool.
  void Wait();

  /// Tasks that threw. A throwing task never takes the pool down: the worker
  /// captures the exception, the pool keeps draining, and the caller checks
  /// here after Wait() to surface a structured internal-error outcome.
  std::uint64_t error_count() const {
    return error_count_.load(std::memory_order_acquire);
  }

  /// The first captured exception (null when error_count() == 0), clearing
  /// the error state. Call after Wait(); rethrow or inspect as needed.
  std::exception_ptr TakeFirstError();

 private:
  struct Deque {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  /// Pops from own back, then steals from the front of the others, starting
  /// after `self` and wrapping. Returns false when every deque was empty.
  bool TryRunOne(int self);
  void WorkerLoop(int self);

  std::vector<std::unique_ptr<Deque>> deques_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  /// Tasks sitting in some deque, not yet claimed.
  std::atomic<std::uint64_t> queued_{0};
  /// Tasks submitted and not yet finished (queued + running).
  std::atomic<std::uint64_t> pending_{0};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> next_deque_{0};

  std::mutex error_mu_;
  std::exception_ptr first_error_;
  std::atomic<std::uint64_t> error_count_{0};
};

/// Submits one task per chunk id in [0, num_chunks) and waits for all of
/// them. The body must be safe to invoke concurrently for distinct ids.
void ParallelForChunks(ThreadPool& pool, std::uint64_t num_chunks,
                       const std::function<void(std::uint64_t)>& body);

}  // namespace vqdr::par

#endif  // VQDR_PAR_POOL_H_
