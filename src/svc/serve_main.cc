// vqdr-serve: long-running determinacy service over a Unix-domain socket.
//
// Usage:
//   vqdr-serve --socket=/tmp/vqdr.sock [--queue-limit=N]
//              [--idle-timeout-ms=N] [--drain-timeout-ms=N]
//              [--memo-snapshot=PATH] [--memo-flush-ms=N]
//              [--class=name:max_concurrent:wall_ms:max_steps:max_atoms]...
//
// SIGTERM/SIGINT trigger drain-then-exit: the listener stops accepting,
// in-flight requests finish (bounded by --drain-timeout-ms), then the
// process exits 0. Each --class defines a tenant admission class; requests
// carry "tenant" to pick one (unknown tenants fall back to "default").
// Each connection has its own thread, and an admitted request runs on it;
// --queue-limit caps the requests running at once.
//
// Numeric flags are validated like the VQDR_* switches (ParseEnvUint,
// base/env.h): digits only, no larger than the field holds — INT_MAX for
// --queue-limit and a class's max_concurrent, kMaxWaitMs for periods. A
// class's wall_ms is signed (negative = no deadline). A bad value exits 2.
//
// --memo-snapshot (or the VQDR_MEMO_SNAPSHOT environment variable) makes
// the memo store survive restarts: loaded at boot, flushed every
// --memo-flush-ms (0 = only at drain and on the "snapshot" control op),
// and written one final time after the SIGTERM drain completes.

#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "base/env.h"
#include "guard/classes.h"
#include "svc/server.h"
#include "svc/service.h"

namespace {

int g_signal_pipe[2] = {-1, -1};

void OnSignal(int) {
  char b = 1;
  (void)!::write(g_signal_pipe[1], &b, 1);
}

constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();

// An unsigned flag value no larger than `max` into *out.
template <typename T>
bool ParseUintFlag(const char* text, std::uint64_t max, T* out) {
  std::optional<std::uint64_t> v = vqdr::ParseEnvUint(text, max);
  if (!v.has_value()) return false;
  *out = static_cast<T>(*v);
  return true;
}

// name:max_concurrent:wall_ms:max_steps:max_atoms — trailing fields optional.
bool ParseClassSpec(const std::string& text,
                    vqdr::guard::BudgetClassSpec* out) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    std::size_t colon = text.find(':', start);
    parts.push_back(text.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (parts.empty() || parts[0].empty() || parts.size() > 5) return false;
  out->name = parts[0];
  if (parts.size() > 1 &&
      !ParseUintFlag(parts[1].c_str(), kIntMax, &out->max_concurrent)) {
    return false;
  }
  if (parts.size() > 2) {
    const char* first = parts[2].data();
    const char* last = first + parts[2].size();
    auto [end, ec] = std::from_chars(first, last, out->cap.wall_ms);
    if (ec != std::errc() || end != last) return false;
  }
  constexpr std::uint64_t kCountMax = std::numeric_limits<std::uint64_t>::max();
  if (parts.size() > 3 &&
      !ParseUintFlag(parts[3].c_str(), kCountMax, &out->cap.max_steps)) {
    return false;
  }
  if (parts.size() > 4 &&
      !ParseUintFlag(parts[4].c_str(), kCountMax, &out->cap.max_atoms)) {
    return false;
  }
  return true;
}

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --socket=PATH [--queue-limit=N]\n"
      "          [--idle-timeout-ms=N] [--drain-timeout-ms=N]\n"
      "          [--memo-snapshot=PATH] [--memo-flush-ms=N]\n"
      "          [--class=name:max_concurrent:wall_ms:max_steps:max_atoms]...\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  vqdr::svc::ServiceOptions service_options;
  vqdr::svc::ServerOptions server_options;
  std::vector<vqdr::guard::BudgetClassSpec> classes;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) -> const char* {
      std::size_t n = std::strlen(prefix);
      if (arg.compare(0, n, prefix) == 0) return arg.c_str() + n;
      return nullptr;
    };
    bool valid = true;
    if (const char* val = value_of("--socket=")) {
      server_options.socket_path = val;
    } else if (const char* val = value_of("--queue-limit=")) {
      valid = ParseUintFlag(val, kIntMax, &service_options.queue_limit) &&
              service_options.queue_limit > 0;
    } else if (const char* val = value_of("--idle-timeout-ms=")) {
      valid = ParseUintFlag(val, vqdr::kMaxWaitMs,
                            &server_options.idle_timeout_ms);
    } else if (const char* val = value_of("--drain-timeout-ms=")) {
      valid = ParseUintFlag(val, vqdr::kMaxWaitMs,
                            &server_options.drain_timeout_ms);
    } else if (const char* val = value_of("--memo-snapshot=")) {
      service_options.memo_snapshot_path = val;
    } else if (const char* val = value_of("--memo-flush-ms=")) {
      valid = ParseUintFlag(val, vqdr::kMaxWaitMs,
                            &service_options.memo_flush_ms);
    } else if (const char* val = value_of("--class=")) {
      vqdr::guard::BudgetClassSpec spec;
      if (!ParseClassSpec(val, &spec)) {
        std::fprintf(stderr, "bad --class spec: %s\n", val);
        return 2;
      }
      classes.push_back(std::move(spec));
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
    if (!valid) {
      std::fprintf(stderr, "bad value: %s\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }
  if (server_options.socket_path.empty()) {
    Usage(argv[0]);
    return 2;
  }

  if (::pipe(g_signal_pipe) < 0) {
    std::perror("pipe");
    return 1;
  }
  struct sigaction sa{};
  sa.sa_handler = OnSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // a dead client must not kill the daemon

  vqdr::svc::Service service(service_options);
  for (vqdr::guard::BudgetClassSpec& spec : classes) {
    service.classes().Define(std::move(spec));
  }
  vqdr::svc::Server server(service, server_options);
  vqdr::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "vqdr-serve: %s\n", started.message().c_str());
    return 1;
  }
  std::fprintf(stderr, "vqdr-serve: listening on %s (queue-limit=%zu)\n",
               server.socket_path().c_str(), service.options().queue_limit);
  if (!service.memo_snapshot_path().empty()) {
    std::fprintf(stderr,
                 "vqdr-serve: memo snapshot at %s (flush every %llu ms)\n",
                 service.memo_snapshot_path().c_str(),
                 static_cast<unsigned long long>(
                     service.options().memo_flush_ms));
  }

  // Park until a signal arrives, then drain and exit.
  pollfd p{g_signal_pipe[0], POLLIN, 0};
  while (true) {
    int rc = ::poll(&p, 1, -1);
    if (rc > 0) break;
    if (rc < 0 && errno != EINTR) break;
  }
  std::fprintf(stderr, "vqdr-serve: draining (in_flight=%llu)\n",
               static_cast<unsigned long long>(service.in_flight()));
  server.Shutdown();
  const vqdr::svc::ServiceStats stats = service.stats();
  std::fprintf(stderr,
               "vqdr-serve: exit accepted=%llu completed=%llu "
               "overloaded=%llu draining=%llu\n",
               static_cast<unsigned long long>(stats.accepted),
               static_cast<unsigned long long>(stats.completed),
               static_cast<unsigned long long>(stats.rejected_overloaded),
               static_cast<unsigned long long>(stats.rejected_draining));
  return 0;
}
