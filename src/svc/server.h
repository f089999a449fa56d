#ifndef VQDR_SVC_SERVER_H_
#define VQDR_SVC_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "base/status.h"
#include "svc/service.h"

// The vqdr-serve transport: a Unix-domain stream socket speaking the
// line-delimited protocol of svc/proto.h. Each accepted connection gets its
// own thread running a read-dispatch-write loop — an admitted request runs
// on it — with per-connection robustness:
//
//  * idle/read timeout — a connection silent for idle_timeout_ms is closed;
//  * frame cap + resync — an overlong line is answered with a structured
//    "frame_too_large" rejection and input is discarded to the next newline,
//    so one hostile frame never wedges or kills the connection;
//  * malformed JSON is answered with "bad_request" and the connection lives
//    on (recovery, not teardown).
//
// The accept loop joins the threads of finished connections before it
// starts the next one, so a long-lived server holds a thread (and its
// stack) only per open connection, plus any that finished since the last
// accept.
//
// Shutdown() is the drain-then-exit path (SIGTERM): stop accepting, flip
// the service to draining (engine ops rejected with "draining", control
// ops still served), wait for in-flight requests to finish, then close the
// remaining connections and join every thread.

namespace vqdr::svc {

struct ServerOptions {
  /// Filesystem path of the listening socket. A stale file is unlinked at
  /// Start() and the path is unlinked again at Shutdown().
  std::string socket_path;

  /// Close a connection after this long with no complete frame. 0 disables.
  std::uint64_t idle_timeout_ms = 30000;

  /// How long Shutdown() waits for in-flight requests before closing
  /// connections anyway.
  std::uint64_t drain_timeout_ms = 10000;

  int backlog = 64;
};

class Server {
 public:
  Server(Service& service, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the accept thread.
  Status Start();

  /// Drain-then-exit; idempotent and safe without a prior Start().
  void Shutdown();

  const std::string& socket_path() const { return options_.socket_path; }

  /// Connections accepted since Start() (tests).
  std::uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }

  /// Connection threads not yet joined: the open connections plus those
  /// that finished since the last accept (tests).
  std::size_t connection_threads_held() const;

 private:
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ServeConnection(int fd);
  // Joins and forgets the finished connections; conn_mu_ held.
  void ReapFinishedLocked();

  Service& service_;
  ServerOptions options_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  // self-pipe: wakes the accept poll
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
  std::atomic<std::uint64_t> connections_accepted_{0};

  mutable std::mutex conn_mu_;
  std::list<Connection> connections_;  // nodes stay put while threads run
};

}  // namespace vqdr::svc

#endif  // VQDR_SVC_SERVER_H_
