#include "svc/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/metrics.h"

namespace vqdr::svc {

namespace {

// Pending connections the kernel queues for the accept thread.
constexpr int kListenBacklog = 64;

/// Polls fd for readability in slices so `stopping` is honoured promptly.
/// Returns 1 readable, 0 idle-timeout, -1 error/stop.
int PollRead(int fd, std::uint64_t idle_timeout_ms,
             const std::atomic<bool>& stopping) {
  constexpr std::uint64_t kSliceMs = 100;
  std::uint64_t waited = 0;
  while (true) {
    if (stopping.load(std::memory_order_acquire)) return -1;
    pollfd p{fd, POLLIN, 0};
    std::uint64_t slice = kSliceMs;
    if (idle_timeout_ms != 0 && idle_timeout_ms - waited < slice) {
      slice = idle_timeout_ms - waited;
    }
    int rc = ::poll(&p, 1, static_cast<int>(slice));
    if (rc < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (rc > 0) {
      if ((p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
          (p.revents & POLLIN) == 0) {
        return -1;
      }
      return 1;
    }
    waited += slice;
    if (idle_timeout_ms != 0 && waited >= idle_timeout_ms) return 0;
  }
}

bool WriteAll(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    // MSG_NOSIGNAL: a client that hung up must fail the write, not SIGPIPE
    // the whole process (embedders don't necessarily ignore SIGPIPE).
    ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Server::Server(Service& service, ServerOptions options)
    : service_(service), options_(std::move(options)) {}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  if (started_.exchange(true)) return Status::Internal("already started");
  if (options_.socket_path.empty()) {
    return Status::InvalidArgument("socket_path is required");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " +
                                   options_.socket_path);
  }
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::Internal("socket() failed");
  ::unlink(options_.socket_path.c_str());  // stale path from a crashed run
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("bind(" + options_.socket_path +
                            ") failed: " + std::strerror(errno));
  }
  if (::listen(listen_fd_, kListenBacklog) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("listen() failed");
  }
  if (::pipe(wake_pipe_) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("pipe() failed");
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void Server::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) break;  // woken for shutdown
    if ((fds[0].revents & POLLIN) == 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    VQDR_COUNTER_INC("svc.connections");
    std::lock_guard<std::mutex> lock(conn_mu_);
    ReapFinishedLocked();
    Connection& conn = connections_.emplace_back();
    conn.thread = std::thread([this, fd, &conn] {
      ServeConnection(fd);
      conn.done.store(true, std::memory_order_release);
    });
  }
}

void Server::ReapFinishedLocked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->done.load(std::memory_order_acquire)) {
      it->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

std::size_t Server::connection_threads_held() const {
  std::lock_guard<std::mutex> lock(conn_mu_);
  return connections_.size();
}

void Server::ServeConnection(int fd) {
  std::string buffer;
  bool resyncing = false;  // discarding an overlong frame up to its newline
  char chunk[4096];
  while (true) {
    // Find a complete line in what we already have before reading more.
    std::size_t nl;
    while ((nl = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (resyncing) {
        // The tail of the overlong frame; already rejected, just resync.
        resyncing = false;
        continue;
      }
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      std::string response = service_.HandleLine(line);
      response.push_back('\n');
      if (!WriteAll(fd, response)) {
        ::close(fd);
        return;
      }
    }
    if (buffer.size() > kMaxRequestBytes) {
      // Reject once, then discard input until the frame's newline; the
      // connection itself survives the hostile frame.
      if (!resyncing) {
        std::string response = SerializeResponse(ErrorResponse(
            "frame_too_large", "request frame exceeds " +
                                   std::to_string(kMaxRequestBytes) +
                                   " bytes"));
        response.push_back('\n');
        if (!WriteAll(fd, response)) {
          ::close(fd);
          return;
        }
        resyncing = true;
      }
      buffer.clear();
    }
    int ready = PollRead(fd, options_.idle_timeout_ms, stopping_);
    if (ready <= 0) break;  // idle timeout, error, or server shutdown
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // peer closed or hard error
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
}

void Server::Shutdown() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (stopping_.exchange(true)) return;

  // 1. Stop accepting.
  if (wake_pipe_[1] >= 0) {
    char b = 1;
    (void)!::write(wake_pipe_[1], &b, 1);
  }
  if (accept_thread_.joinable()) accept_thread_.join();

  // 2. Drain: engine ops now reject with "draining"; wait (bounded) for
  //    in-flight work so admitted requests get real answers, not cut wires.
  service_.BeginDrain();
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(options_.drain_timeout_ms);
  while (service_.in_flight() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // 3. Close connections (their threads see stopping_ at the next poll
  //    slice) and join them.
  std::list<Connection> connections;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    connections.swap(connections_);
  }
  for (Connection& conn : connections) conn.thread.join();

  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  ::unlink(options_.socket_path.c_str());
}

}  // namespace vqdr::svc
