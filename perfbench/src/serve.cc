// The serve workload: a closed loop over two connections to a freshly
// started vqdr-serve on its Unix socket, default options (memo on), no
// per-request deadlines. About 70% determinacy, 15% containment, 10% chase
// and 5% batch requests; every other request repeats a hot set warmed in
// set-up, the rest are first-seen. Client and server share one CPU
// (PinToOneCpu).

#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <latch>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.h"
#include "decide_ops.h"
#include "gen.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "svc/client.h"
#include "svc/proto.h"
#include "svc/service.h"

extern char** environ;

namespace perfbench {

namespace {

namespace json = vqdr::obs::json;

constexpr int kConnections = 2;
constexpr int kChunkPerConnection = 400;
constexpr int kSetups = 5;
// Memo capacity (a deployment setting): small enough that set-up fills it
// quickly, large enough that the hot set stays resident under the fresh
// traffic.
constexpr const char* kMemoCapacity = "4096";
// Hot requests per kind (determinacy, containment, chase, batch): half the
// traffic repeats them, so the set is large enough that its cost does not
// depend on the seed's few draws.
constexpr int kHotPerKind[] = {384, 96, 64, 32};
constexpr int kFillBlock = 200;
constexpr int kMaxAtoms = 4;
// A reply later than this is a failure, so a pathological request cannot
// stall the run past its time limit.
constexpr std::uint64_t kCallTimeoutMs = 20000;
constexpr int kWarmupPerConnection = 400;
// Requests replayed through the in-process service in the traced run.
constexpr int kReplayChunks = 2;
// Yields to wait for a replayed request's op to complete (far more than a
// scope close takes; a request whose op never shows is left out).
constexpr int kOpWaitSpins = 1000000;

enum Kind { kDeterminacy = 0, kContainment = 1, kChase = 2, kBatch = 3 };

// One cycle of the class schedule: 14 determinacy, 3 containment, 2 chase,
// 1 batch.
constexpr Kind kCycle[] = {
    kDeterminacy, kContainment, kDeterminacy, kChase,       kDeterminacy,
    kDeterminacy, kBatch,       kDeterminacy, kContainment, kDeterminacy,
    kDeterminacy, kChase,       kDeterminacy, kDeterminacy, kContainment,
    kDeterminacy, kDeterminacy, kDeterminacy, kDeterminacy, kDeterminacy,
};
constexpr int kCycleLen = sizeof(kCycle) / sizeof(kCycle[0]);

// A request line plus the answer it was built to get.
struct Request {
  Kind kind = kDeterminacy;
  bool hot = false;
  std::string line;
  std::vector<bool> determined;  // determinacy (1) and batch (one per item)
  bool contained = false;
  int levels = 0;
  int query_atoms = 0;
};

std::string Quote(const std::string& s) {
  std::string out;
  vqdr::svc::AppendJson(s, &out);
  return out;
}

std::string ViewsJson(const std::vector<std::string>& views) {
  std::string out = "[";
  for (std::size_t i = 0; i < views.size(); ++i) {
    if (i > 0) out += ',';
    out += Quote(views[i]);
  }
  return out + "]";
}

// Fresh requests of each kind, with unique names under `prefix`.
class RequestSource {
 public:
  // Pairs are capped at kMaxAtoms view atoms in R: a served request that
  // runs for many milliseconds holds its connection and, in a closed loop,
  // makes throughput depend on how many such draws a seed happens to make.
  RequestSource(std::uint64_t seed, std::string prefix)
      : decide_(seed, kMaxAtoms), rng_(StreamSeed(seed, 7)),
        prefix_(std::move(prefix)) {}

  Request Next(Kind kind) {
    Request r;
    r.kind = kind;
    switch (kind) {
      case kDeterminacy: {
        DecideCase c = decide_.Next(Tag());
        r.line = "{\"op\":\"determinacy\",\"views\":" + ViewsJson(c.views) +
                 ",\"query\":" + Quote(c.query) + "}";
        r.determined = {c.determined};
        break;
      }
      case kContainment: {
        bool contained = rng_.Chance(0.5);
        ContainmentCase c = DrawContainmentCase(rng_, contained, Tag());
        r.line = "{\"op\":\"containment\",\"q1\":" + Quote(c.q1) +
                 ",\"q2\":" + Quote(c.q2) + "}";
        r.contained = contained;
        break;
      }
      case kChase: {
        // Small pairs over path or project-select views. One more chase
        // level re-applies the views to the chased instance, and a random
        // multi-atom view (a star with three head variables, say) can grow
        // it cubically: such a request runs for minutes, not milliseconds.
        static constexpr Family kFamilies[] = {Family::kPathChain,
                                               Family::kProjectSelect};
        DecideCase c = DrawDecideCase(rng_, kFamilies[rng_.Uniform(0, 1)],
                                      rng_.Chance(0.5), rng_.Uniform(1, 2),
                                      Tag());
        r.levels = 1;
        r.query_atoms = c.query_atoms;
        r.line = "{\"op\":\"chase\",\"views\":" + ViewsJson(c.views) +
                 ",\"query\":" + Quote(c.query) + ",\"levels\":" +
                 std::to_string(r.levels) + "}";
        break;
      }
      case kBatch: {
        int n = rng_.Uniform(4, 16);
        r.line = "{\"op\":\"batch\",\"items\":[";
        for (int i = 0; i < n; ++i) {
          DecideCase c = decide_.Next(Tag());
          r.line += (i ? "," : "") + std::string("{\"views\":") +
                    ViewsJson(c.views) + ",\"query\":" + Quote(c.query) + "}";
          r.determined.push_back(c.determined);
        }
        r.line += "]}";
        break;
      }
    }
    return r;
  }

 private:
  std::string Tag() { return prefix_ + std::to_string(counter_++); }

  DecideStream decide_;
  Rng rng_;
  std::string prefix_;
  std::uint64_t counter_ = 0;
};

// The hot set: requests every set-up warms, repeated by the timed phase.
struct HotSet {
  std::vector<Request> by_kind[4];
};

HotSet BuildHotSet(std::uint64_t seed) {
  HotSet hot;
  RequestSource source(StreamSeed(seed, 30), "h");
  for (int k = 0; k < 4; ++k) {
    for (int i = 0; i < kHotPerKind[k]; ++i) {
      hot.by_kind[k].push_back(source.Next(static_cast<Kind>(k)));
      hot.by_kind[k].back().hot = true;
    }
  }
  return hot;
}

// One connection's traffic: the class schedule, every other request from
// the hot set (alternating per cycle so each slot is hot half the time).
class Traffic {
 public:
  Traffic(std::uint64_t seed, const HotSet& hot, std::string prefix)
      : hot_(hot), pick_(StreamSeed(seed, 1)), fresh_(StreamSeed(seed, 2),
                                                        std::move(prefix)) {}

  Request Next() {
    std::uint64_t i = index_++;
    Kind kind = kCycle[i % kCycleLen];
    if ((i + i / kCycleLen) % 2 == 0) {
      const std::vector<Request>& pool = hot_.by_kind[kind];
      return pool[pick_.Uniform(0, static_cast<int>(pool.size()) - 1)];
    }
    return fresh_.Next(kind);
  }

 private:
  const HotSet& hot_;
  Rng pick_;
  RequestSource fresh_;
  std::uint64_t index_ = 0;
};

// Checks a response against the request's construction label. Returns ""
// when correct, else the reason.
std::string CheckResponse(const Request& req, const std::string& response,
                          std::int64_t* elapsed_us) {
  std::optional<json::Value> v = json::Parse(response);
  if (!v.has_value() || !v->IsObject()) return "unparseable response";
  const json::Value* ok = v->Find("ok");
  if (ok == nullptr || !ok->IsBool() || !ok->bool_value) {
    return "error response: " + response.substr(0, 200);
  }
  if (v->StringOr("outcome", "") != "COMPLETE") return "outcome not COMPLETE";
  if (elapsed_us != nullptr) *elapsed_us = v->IntOr("elapsed_us", -1);
  const json::Value* result = v->Find("result");
  if (result == nullptr || !result->IsObject()) return "no result";
  auto flag = [](const json::Value& obj, const char* key) -> int {
    const json::Value* f = obj.Find(key);
    return f != nullptr && f->IsBool() ? (f->bool_value ? 1 : 0) : -1;
  };
  switch (req.kind) {
    case kDeterminacy:
      return flag(*result, "determined") == (req.determined[0] ? 1 : 0)
                 ? ""
                 : "wrong determinacy verdict";
    case kContainment:
      return flag(*result, "contained") == (req.contained ? 1 : 0)
                 ? ""
                 : "wrong containment verdict";
    case kChase: {
      const json::Value* levels = result->Find("levels");
      if (result->IntOr("levels_built", -1) != req.levels + 1 ||
          levels == nullptr || !levels->IsArray() || levels->array.empty() ||
          levels->array[0].IntOr("d", -1) != req.query_atoms) {
        return "wrong chase levels";
      }
      return "";
    }
    case kBatch: {
      const json::Value* items = result->Find("items");
      if (items == nullptr || !items->IsArray() ||
          items->array.size() != req.determined.size()) {
        return "wrong batch size";
      }
      for (std::size_t i = 0; i < req.determined.size(); ++i) {
        if (flag(items->array[i], "determined") != (req.determined[i] ? 1 : 0)) {
          return "wrong batch item verdict";
        }
      }
      return "";
    }
  }
  return "unknown kind";
}

// A vqdr-serve child process. Readiness is its "listening" stderr line,
// read with a blocking wait; stderr is drained on a thread until exit.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    if (drain_.joinable()) drain_.join();
    if (fd_ >= 0) ::close(fd_);
  }

  bool Start(const std::string& binary, const std::string& socket,
             std::string* error) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      *error = "pipe failed";
      return false;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], 2);
    posix_spawn_file_actions_addclose(&actions, pipe_fds[0]);
    posix_spawn_file_actions_addclose(&actions, pipe_fds[1]);
    std::string socket_arg = "--socket=" + socket;
    char* argv[] = {const_cast<char*>(binary.c_str()),
                    const_cast<char*>(socket_arg.c_str()), nullptr};
    int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv,
                         environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(pipe_fds[1]);
    fd_ = pipe_fds[0];
    if (rc != 0) {
      pid_ = 0;
      *error = "cannot start " + binary;
      return false;
    }
    // Block until the listening line (or EOF, or a 30 s safety limit).
    std::string text;
    char buf[512];
    while (text.find("listening") == std::string::npos) {
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, 30000) <= 0) break;
      ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n <= 0) break;
      text.append(buf, static_cast<std::size_t>(n));
    }
    if (text.find("listening") == std::string::npos) {
      *error = "vqdr-serve did not start: " + text;
      return false;
    }
    stderr_text_ = text;
    drain_ = std::thread([this] {
      char b[512];
      ssize_t n;
      while ((n = ::read(fd_, b, sizeof(b))) > 0) {
        std::lock_guard<std::mutex> lock(mu_);
        stderr_text_.append(b, static_cast<std::size_t>(n));
      }
    });
    return true;
  }

  int pid() const { return pid_; }

  // SIGTERM, then wait for exit; returns the exit code (-1 if signalled).
  // A server still running 15 s after SIGTERM is killed.
  int Stop() {
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int waited_ms = 0; ::waitpid(pid_, &status, WNOHANG) == 0; waited_ms += 10) {
      if (waited_ms >= 15000) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    pid_ = 0;
    if (drain_.joinable()) drain_.join();
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  // utime + stime of the server, µs.
  double CpuUs() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::size_t close = text.rfind(')');
    if (close == std::string::npos) return 0;
    std::istringstream fields(text.substr(close + 2));
    std::string f;
    double utime = 0, stime = 0;
    for (int i = 3; i <= 15 && fields >> f; ++i) {
      if (i == 14) utime = std::atof(f.c_str());
      if (i == 15) stime = std::atof(f.c_str());
    }
    return (utime + stime) * 1e6 / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

 private:
  pid_t pid_ = 0;
  int fd_ = -1;
  std::thread drain_;
  std::mutex mu_;
  std::string stderr_text_;
};

// Pins the calling thread to the last CPU it may run on. Every thread it
// starts afterwards, and the vqdr-serve it spawns, inherit the mask, so the
// whole deployment shares one CPU. Across CPUs each request hands off four
// times between threads that sleep in between; on a VM every such wake-up
// of an idle vCPU goes through the host, and its cost drifts with the
// host's load (unpinned, 0.6 s blocks of one run ranged from 1700 to 7400
// requests/s while a fixed loop beside it mostly held within 5%). On one
// CPU a thread is always runnable and a hand-off is a context switch.
bool PinToOneCpu(int* cpu) {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    *cpu = c;
    return ::sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  return false;
}

// Counter values from the server's "metrics" op (Prometheus text).
std::map<std::string, double> ServerCounters(vqdr::svc::Client& client) {
  std::map<std::string, double> out;
  vqdr::StatusOr<std::string> resp =
      client.Call("{\"op\":\"metrics\"}", kCallTimeoutMs);
  if (!resp.ok()) return out;
  std::optional<json::Value> v = json::Parse(*resp);
  if (!v.has_value()) return out;
  const json::Value* result = v->Find("result");
  if (result == nullptr) return out;
  std::istringstream body(result->StringOr("body", ""));
  std::string line;
  while (std::getline(body, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::atof(line.c_str() + space + 1);
  }
  return out;
}

// The server's "stats" op.
std::map<std::string, std::int64_t> ServerStats(vqdr::svc::Client& client) {
  std::map<std::string, std::int64_t> out;
  vqdr::StatusOr<std::string> resp =
      client.Call("{\"op\":\"stats\"}", kCallTimeoutMs);
  if (!resp.ok()) return out;
  std::optional<json::Value> v = json::Parse(*resp);
  if (!v.has_value() || v->Find("result") == nullptr) return out;
  for (const auto& [key, value] : v->Find("result")->object) {
    if (value.IsNumber()) out[key] = value.int_value;
  }
  return out;
}

// A running server with its two client connections, set up and warmed.
struct Deployment {
  std::unique_ptr<ServerProcess> server;
  std::vector<vqdr::svc::Client> clients;
  // Every line the set-up sent, in order (the in-process replay warms the
  // same way).
  std::vector<std::string> warm_lines;
};

// Sends `lines[c]` on connection c, all connections concurrently; returns
// the responses and (optionally) per-request send and receive times.
struct ClosedLoopResult {
  std::vector<std::vector<std::string>> responses;
  std::vector<std::vector<std::int64_t>> sent_ns;
  std::vector<std::vector<std::int64_t>> done_ns;
  std::int64_t wall_ns = 0;
  // Per connection: "" or why the loop stopped (a transport error, or no
  // reply within kCallTimeoutMs).
  std::vector<std::string> errors;
};

ClosedLoopResult RunClosedLoop(Deployment& d,
                               const std::vector<std::vector<Request>>& reqs) {
  ClosedLoopResult out;
  out.responses.resize(kConnections);
  out.sent_ns.resize(kConnections);
  out.done_ns.resize(kConnections);
  out.errors.resize(kConnections);
  std::latch ready(kConnections);
  std::latch go(1);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      const std::vector<Request>& mine = reqs[c];
      out.responses[c].resize(mine.size());
      out.sent_ns[c].resize(mine.size());
      out.done_ns[c].resize(mine.size());
      ready.count_down();
      go.wait();
      for (std::size_t i = 0; i < mine.size(); ++i) {
        out.sent_ns[c][i] = NowNs();
        vqdr::StatusOr<std::string> resp =
            d.clients[c].Call(mine[i].line, kCallTimeoutMs);
        out.done_ns[c][i] = NowNs();
        if (!resp.ok()) {
          out.errors[c] = resp.status().message() + " on " +
                          mine[i].line.substr(0, 400);
          break;
        }
        out.responses[c][i] = std::move(resp).value();
      }
    });
  }
  ready.wait();
  std::int64_t start = NowNs();
  go.count_down();
  for (std::thread& t : threads) t.join();
  out.wall_ns = NowNs() - start;
  return out;
}

// The first transport error of a closed loop, or "".
std::string TransportError(const ClosedLoopResult& res) {
  for (const std::string& e : res.errors) {
    if (!e.empty()) return e;
  }
  return "";
}

// Set-up: start the server, wait for "listening", connect, health, warm the
// hot set, fill the memo to capacity with fresh draws, then a warm-up pass
// on draws the timed phase never repeats.
bool SetUp(const Args& args, const HotSet& hot, int repeat, Deployment* d,
           Outcome* out) {
  std::string socket = args.work_dir + "/serve-" + std::to_string(::getpid()) +
                       "-" + std::to_string(repeat) + ".sock";
  d->server = std::make_unique<ServerProcess>();
  std::string error;
  if (!d->server->Start(args.server, socket, &error)) {
    out->Fail(error);
    return false;
  }
  for (int c = 0; c < kConnections; ++c) {
    vqdr::StatusOr<vqdr::svc::Client> client = vqdr::svc::Client::Connect(socket);
    if (!client.ok()) {
      out->Fail("connect: " + client.status().message());
      return false;
    }
    d->clients.push_back(std::move(client).value());
  }
  vqdr::StatusOr<std::string> health = d->clients[0].Call("{\"op\":\"health\"}");
  if (!health.ok() || health->find("\"ok\":true") == std::string::npos) {
    out->Fail("health check failed");
    return false;
  }
  auto send_all = [&](std::vector<std::vector<Request>>& blocks) {
    for (const std::vector<Request>& b : blocks) {
      for (const Request& r : b) d->warm_lines.push_back(r.line);
    }
    ClosedLoopResult res = RunClosedLoop(*d, blocks);
    if (std::string e = TransportError(res); !e.empty()) {
      out->Fail("set-up: " + e);
      return;
    }
    for (int c = 0; c < kConnections; ++c) {
      for (std::size_t i = 0; i < blocks[c].size(); ++i) {
        std::string why = CheckResponse(blocks[c][i], res.responses[c][i], nullptr);
        if (!why.empty()) out->Fail("set-up: " + why);
      }
    }
  };
  // The hot set, split across the connections.
  std::vector<std::vector<Request>> blocks(kConnections);
  int n = 0;
  for (const std::vector<Request>& pool : hot.by_kind) {
    for (const Request& r : pool) blocks[n++ % kConnections].push_back(r);
  }
  send_all(blocks);
  if (out->failed > 0) return false;
  // Fill the memo with fresh draws until the store starts evicting.
  std::vector<std::unique_ptr<RequestSource>> fill;
  for (int c = 0; c < kConnections; ++c) {
    fill.push_back(std::make_unique<RequestSource>(
        StreamSeed(args.seed, 40 + 10 * repeat + c),
        "s" + std::to_string(repeat) + "c" + std::to_string(c) + "f"));
  }
  std::uint64_t fill_index = 0;
  while (ServerCounters(d->clients[0])["vqdr_memo_evictions_total"] == 0) {
    for (int c = 0; c < kConnections; ++c) {
      blocks[c].clear();
      for (int i = 0; i < kFillBlock; ++i) {
        blocks[c].push_back(fill[c]->Next(kCycle[(fill_index + i) % kCycleLen]));
      }
    }
    fill_index += kFillBlock;
    send_all(blocks);
    if (out->failed > 0) return false;
  }
  // Warm-up in the timed phase's mix, on draws it never repeats.
  for (int c = 0; c < kConnections; ++c) {
    Traffic warm(StreamSeed(args.seed, 60 + 10 * repeat + c), hot,
                 "s" + std::to_string(repeat) + "c" + std::to_string(c) + "w");
    blocks[c].clear();
    for (int i = 0; i < kWarmupPerConnection; ++i) blocks[c].push_back(warm.Next());
  }
  send_all(blocks);
  return out->failed == 0;
}

// Stops a deployment and checks its hygiene: stats consistent, no internal
// errors or rejections, exit code 0 after SIGTERM.
void TearDown(Deployment& d, Outcome* out, double* peak_rss_mb) {
  std::map<std::string, std::int64_t> stats = ServerStats(d.clients[0]);
  if (stats["accepted"] != stats["completed"]) out->Fail("accepted != completed");
  if (stats["internal_errors"] != 0) out->Fail("internal errors");
  if (stats["rejected_overloaded"] + stats["rejected_draining"] != 0) {
    out->Fail("rejected requests");
  }
  if (peak_rss_mb != nullptr) *peak_rss_mb = PeakRssMb(d.server->pid());
  for (vqdr::svc::Client& c : d.clients) c.Close();
  int code = d.server->Stop();
  if (code != 0) out->Fail("vqdr-serve exit code " + std::to_string(code));
}

// What the traced phase keeps per request.
struct TracedSample {
  double rtt_us = 0;
  double server_us = 0;
};

// The timed phase against a set-up deployment. With `logs`, every request
// gets a span (client round trip) with the server's own elapsed time as a
// child; `replay` collects the first kReplayChunks chunks' requests.
TimedPhase RunPhase(const Args& args, double seconds, const HotSet& hot,
                    Deployment& d, std::vector<SpanLog>* logs,
                    std::vector<TracedSample>* samples,
                    std::vector<Request>* replay, double* hot_share,
                    Outcome* out) {
  TimedPhase phase;
  std::vector<std::unique_ptr<Traffic>> traffic;
  for (int c = 0; c < kConnections; ++c) {
    traffic.push_back(std::make_unique<Traffic>(StreamSeed(args.seed, 80 + c), hot,
                                                "t" + std::to_string(c) + "_"));
  }
  const std::int64_t budget_ns = static_cast<std::int64_t>(seconds * 1e9);
  std::uint64_t hot_count = 0;
  std::uint64_t next_op = 1;
  int chunk = 0;
  while (phase.wall_ns < budget_ns) {
    std::vector<std::vector<Request>> reqs(kConnections);
    for (int c = 0; c < kConnections; ++c) {
      for (int i = 0; i < kChunkPerConnection; ++i) {
        reqs[c].push_back(traffic[c]->Next());
        hot_count += reqs[c].back().hot ? 1 : 0;
      }
      if (replay != nullptr && chunk < kReplayChunks) {
        replay->insert(replay->end(), reqs[c].begin(), reqs[c].end());
      }
    }
    ClosedLoopResult res = RunClosedLoop(d, reqs);
    if (std::string e = TransportError(res); !e.empty()) {
      out->Fail(e);
      return phase;
    }
    for (int c = 0; c < kConnections; ++c) {
      for (std::size_t i = 0; i < reqs[c].size(); ++i) {
        std::int64_t rtt = res.done_ns[c][i] - res.sent_ns[c][i];
        phase.Record(static_cast<double>(rtt));
        std::int64_t elapsed_us = -1;
        std::string why = CheckResponse(reqs[c][i], res.responses[c][i], &elapsed_us);
        if (!why.empty()) out->Fail(why);
        if (logs != nullptr) {
          SpanLog& log = (*logs)[c];
          std::uint64_t op = next_op + c * reqs[c].size() + i;
          int root = log.Add("serve.request", op, res.sent_ns[c][i],
                             res.done_ns[c][i], -1);
          // The server's own time, centred in the round trip.
          std::int64_t server_ns = std::max<std::int64_t>(0, elapsed_us) * 1000;
          std::int64_t slack = std::max<std::int64_t>(0, rtt - server_ns) / 2;
          log.Add("svc.server", op, res.sent_ns[c][i] + slack,
                  res.sent_ns[c][i] + slack + std::min(server_ns, rtt), root);
          samples->push_back({static_cast<double>(rtt) / 1e3,
                              static_cast<double>(std::min(server_ns, rtt)) / 1e3});
        }
      }
    }
    phase.EndChunk(res.wall_ns,
                   static_cast<std::uint64_t>(kConnections) * kChunkPerConnection);
    out->attempted += static_cast<std::uint64_t>(kConnections) * kChunkPerConnection;
    next_op += static_cast<std::uint64_t>(kConnections) * kChunkPerConnection;
    ++chunk;
  }
  if (hot_share != nullptr) {
    *hot_share = static_cast<double>(hot_count) / static_cast<double>(phase.ops);
  }
  return phase;
}

// Replays request lines through an in-process svc::Service with the
// server's default options, timing ParseRequest, Service::Handle and
// SerializeResponse, and reading the handler's own time (the engine) from
// the op registry.
void ReplayInProcess(const std::vector<std::string>& warm_lines,
                     const std::vector<Request>& requests, SpanLog* log,
                     Outcome* out) {
  vqdr::svc::Service service;
  for (const std::string& line : warm_lines) service.HandleLine(line);
  vqdr::obs::SetKeepCompletedOps(4);
  // Telemetry-epoch µs to this clock's ns.
  std::int64_t offset_ns =
      NowNs() - static_cast<std::int64_t>(vqdr::obs::TelemetryNowUs()) * 1000;
  std::vector<double> dispatch_us;
  std::vector<double> engine_us;
  std::vector<double> item_us;
  double dispatch_total = 0;
  double engine_total = 0;
  double item_total = 0;
  double op_total = 0;
  std::uint64_t op = 1;
  vqdr::obs::OpId last_op_id = 0;
  for (const Request& req : requests) {
    int root = log->Begin("svc.request", op);
    vqdr::StatusOr<vqdr::svc::Request> parsed = [&] {
      Scoped s(log, "svc.parse", op);
      return vqdr::svc::ParseRequest(req.line);
    }();
    if (!parsed.ok()) {
      log->End(root);
      out->Fail("replay parse");
      continue;
    }
    int handle = log->Begin("svc.handle", op);
    vqdr::svc::Response response = service.Handle(*parsed);
    log->End(handle);
    std::string bytes;
    {
      Scoped s(log, "svc.serialize", op);
      bytes = vqdr::svc::SerializeResponse(response);
    }
    log->End(root);
    // The handler's op enters the completed ring when its scope closes on
    // the pool worker, which can be just after Handle returned (always so
    // when the worker shares this thread's CPU): wait for an op newer than
    // the last one read, or the previous request's time would count twice.
    std::optional<vqdr::obs::OpSnapshot> engine_op;
    for (int spin = 0; spin < kOpWaitSpins && !engine_op.has_value(); ++spin) {
      std::vector<vqdr::obs::OpSnapshot> done = vqdr::obs::RecentCompletedOps();
      if (!done.empty() && done[0].id > last_op_id &&
          done[0].label.rfind("svc.", 0) == 0) {
        engine_op = done[0];
      } else {
        std::this_thread::yield();
      }
    }
    const Span& h = log->spans()[handle];
    double handle_us = static_cast<double>(h.end_ns - h.start_ns) / 1e3;
    if (engine_op.has_value()) {
      last_op_id = engine_op->id;
      double engine = static_cast<double>(engine_op->age_us);
      std::int64_t start = static_cast<std::int64_t>(engine_op->start_us) * 1000 + offset_ns;
      log->Add("svc.engine", op, start,
               start + static_cast<std::int64_t>(engine_op->age_us) * 1000, handle);
      engine_us.push_back(engine);
      engine_total += engine;
      double dispatch = std::max(0.0, handle_us - engine);
      dispatch_us.push_back(dispatch);
      dispatch_total += dispatch;
      if (req.kind == kBatch) {
        double per_item = engine / static_cast<double>(req.determined.size());
        item_us.push_back(per_item);
        item_total += engine;
      }
    }
    const Span& r = log->spans()[root];
    op_total += static_cast<double>(r.end_ns - r.start_ns) / 1e3;
    std::string why = CheckResponse(req, bytes, nullptr);
    if (!why.empty()) out->Fail("replay: " + why);
    ++op;
  }
  vqdr::obs::SetKeepCompletedOps(0);
  std::map<std::string, SpanStats> stats = SummarizeSpans({log});
  AddSpanMetric(stats, "svc.parse", "svc.parse_us", op_total, out);
  AddSpanMetric(stats, "svc.serialize", "svc.serialize_us", op_total, out);
  out->metrics["svc.engine_us.p50"] = {Median(engine_us), "us"};
  out->metrics["svc.engine_us.share"] = {engine_total / op_total, "ratio"};
  out->metrics["svc.dispatch_us.p50"] = {Median(dispatch_us), "us"};
  out->metrics["svc.dispatch_us.share"] = {dispatch_total / op_total, "ratio"};
  out->metrics["svc.batch_item_us.p50"] = {Median(item_us), "us"};
  out->metrics["svc.batch_item_us.share"] = {item_total / op_total, "ratio"};
}

}  // namespace

Outcome RunServe(const Args& args) {
  Outcome out;
  // The server inherits this; the in-process replay reads it too.
  ::setenv("VQDR_MEMO_CAPACITY", kMemoCapacity, 1);
  int cpu = -1;
  if (!PinToOneCpu(&cpu)) {
    out.Fail("cannot pin to one CPU");
    return out;
  }
  std::fprintf(stderr, "serve: client and vqdr-serve on CPU %d\n", cpu);
  std::vector<double> setups;
  HotSet hot;
  if (!args.trace) {
    Deployment d;
    for (int k = 0; k < kSetups; ++k) {
      std::int64_t t0 = NowNs();
      hot = BuildHotSet(args.seed);
      d = Deployment();
      if (!SetUp(args, hot, k, &d, &out)) return out;
      setups.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
      if (k + 1 < kSetups) TearDown(d, &out, nullptr);
    }
    TimedPhase phase = RunPhase(args, args.seconds, hot, d, nullptr, nullptr,
                                nullptr, nullptr, &out);
    double rss = 0;
    TearDown(d, &out, &rss);
    AddEndToEnd(phase, setups, rss, &out);
    return out;
  }

  hot = BuildHotSet(args.seed);
  double plain_tput = 0;
  {
    Deployment d;
    if (!SetUp(args, hot, 0, &d, &out)) return out;
    TimedPhase plain = RunPhase(args, TracedPhaseSeconds(args), hot, d, nullptr,
                                nullptr, nullptr, nullptr, &out);
    plain_tput = static_cast<double>(plain.ops) / static_cast<double>(plain.wall_ns);
    TearDown(d, &out, nullptr);
  }
  Deployment d;
  if (!SetUp(args, hot, 0, &d, &out)) return out;
  std::map<std::string, double> m0 = ServerCounters(d.clients[0]);
  std::map<std::string, std::int64_t> s0 = ServerStats(d.clients[0]);
  double cpu0 = d.server->CpuUs();
  std::vector<SpanLog> logs = {SpanLog(1), SpanLog(2)};
  std::vector<TracedSample> samples;
  std::vector<Request> replay;
  double hot_share = 0;
  std::int64_t epoch = NowNs();
  TimedPhase traced = RunPhase(args, TracedPhaseSeconds(args), hot, d, &logs, &samples,
                               &replay, &hot_share, &out);
  double cpu1 = d.server->CpuUs();
  std::map<std::string, double> m1 = ServerCounters(d.clients[0]);
  std::map<std::string, std::int64_t> s1 = ServerStats(d.clients[0]);
  std::vector<std::string> warm_lines = d.warm_lines;
  TearDown(d, &out, nullptr);

  const double ops = static_cast<double>(traced.ops);
  std::vector<double> server_us, transport_us;
  double server_total = 0, rtt_total = 0;
  for (const TracedSample& s : samples) {
    server_us.push_back(s.server_us);
    transport_us.push_back(s.rtt_us - s.server_us);
    server_total += s.server_us;
    rtt_total += s.rtt_us;
  }
  out.metrics["svc.server_us.p50"] = {Median(server_us), "us"};
  out.metrics["svc.server_us.share"] = {server_total / rtt_total, "ratio"};
  out.metrics["svc.transport_us.p50"] = {Median(transport_us), "us"};
  out.metrics["svc.transport_us.share"] = {(rtt_total - server_total) / rtt_total, "ratio"};
  out.metrics["svc.server_cpu_us_per_op"] = {(cpu1 - cpu0) / ops, "us"};
  out.metrics["svc.rejected"] = {
      static_cast<double>((s1["rejected_overloaded"] - s0["rejected_overloaded"]) +
                          (s1["rejected_draining"] - s0["rejected_draining"])),
      "count"};
  auto delta = [&](const char* name) { return m1[name] - m0[name]; };
  double hits = delta("vqdr_memo_hits_total");
  double misses = delta("vqdr_memo_misses_total");
  out.metrics["memo.hit_ratio"] = {hits + misses > 0 ? hits / (hits + misses) : 0, "ratio"};
  out.metrics["memo.repeat_share"] = {hot_share, "ratio"};
  out.metrics["memo.installs_per_op"] = {delta("vqdr_memo_installs_total") / ops, "count"};
  out.metrics["memo.evictions_per_op"] = {delta("vqdr_memo_evictions_total") / ops, "count"};
  double traced_tput = ops / static_cast<double>(traced.wall_ns);
  out.metrics["trace.overhead"] = {plain_tput / traced_tput - 1, "ratio"};

  logs.push_back(SpanLog(3));
  ReplayInProcess(warm_lines, replay, &logs.back(), &out);

  std::string error;
  if (!WriteTraceJsonl(args.work_dir + "/serve.trace.jsonl",
                       {&logs[0], &logs[1], &logs[2]}, epoch, &error)) {
    out.Fail("trace: " + error);
  }
  WriteTraceSummary(args, "serve", 0, out);
  return out;
}

}  // namespace perfbench
