#ifndef VQDR_PAR_POOL_H_
#define VQDR_PAR_POOL_H_

#include <cstdint>
#include <exception>
#include <functional>

// The fan-out behind the bounded counterexample and monotonicity searches
// (core/finite_search), the one that measures faster than its serial sweep:
// a chunk cursor. One call runs every chunk of a sharded index space
// (par/shard.h) once; the calling thread and up to threads - 1 plain
// std::threads, started for the call and joined before it returns, take
// chunk ids in ascending order from one atomic counter. No threads outlive
// a call, so none leak into tests, and nothing here decides a result: the
// searches merge per-chunk records in chunk order, so verdicts never depend
// on which thread ran which chunk.

namespace vqdr::par {

/// The default worker count for `threads = 0` requests: the VQDR_THREADS
/// environment variable when set to a positive integer that fits an int,
/// otherwise std::thread::hardware_concurrency(). Always >= 1.
int DefaultThreads();

/// The worker count for EnumerationOptions::threads, the one thread-count
/// option in the engines: 0 asks for DefaultThreads(), a negative request
/// runs one worker (serially), and N >= 1 is taken as is. Always >= 1.
int ResolveThreads(int requested);

/// Runs body(c) once for every chunk id c in [0, num_chunks) and returns
/// when all have run. The calling thread takes chunks too, and at most
/// min(threads, num_chunks) - 1 threads are spawned, so threads <= 1 runs
/// every chunk in order on the caller. Ids are handed out in ascending
/// order: the chunks nearest the front of the index space start first.
/// Each chunk runs bound to the caller's operation (obs::OpTaskScope), so
/// its counters, heartbeats and spans attribute to the op that called. The
/// body must be safe to invoke concurrently for distinct ids.
///
/// A chunk that throws never takes the call down: the exception is
/// captured and the remaining chunks still run. Returns the number of
/// chunks that threw; `first_error`, when non-null, receives the first
/// exception captured (null when none threw).
std::uint64_t ParallelForChunks(int threads, std::uint64_t num_chunks,
                                const std::function<void(std::uint64_t)>& body,
                                std::exception_ptr* first_error = nullptr);

}  // namespace vqdr::par

#endif  // VQDR_PAR_POOL_H_
