// End-to-end transport tests (svc/server.h + svc/client.h): real Unix
// sockets, real frames. Covers the per-connection robustness contract —
// malformed-frame recovery, oversize-frame resync, idle timeout — plus
// drain-then-exit shutdown semantics and socket-path hygiene.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>

#include "obs/json.h"
#include "svc/client.h"
#include "svc/proto.h"
#include "svc/server.h"
#include "svc/service.h"

namespace vqdr::svc {
namespace {

// Per-call response ceiling: generous for sanitizer builds, finite so a
// server bug reads as a test failure instead of a hang.
constexpr std::uint64_t kCallTimeoutMs = 60000;

std::string UniqueSocketPath() {
  static int counter = 0;
  return "/tmp/vqdr_svc_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(++counter) + ".sock";
}

std::optional<obs::json::Value> MustJson(const std::string& text) {
  std::string error;
  std::optional<obs::json::Value> v = obs::json::Parse(text, &error);
  EXPECT_TRUE(v.has_value()) << error << " in: " << text;
  return v;
}

class SvcServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}) {
    if (options.socket_path.empty()) options.socket_path = UniqueSocketPath();
    ServiceOptions service_options;
    service_ = std::make_unique<Service>(service_options);
    server_ = std::make_unique<Server>(*service_, options);
    ASSERT_TRUE(server_->Start().ok());
    socket_path_ = server_->socket_path();
  }

  Client MustConnect() {
    StatusOr<Client> client = Client::Connect(socket_path_);
    EXPECT_TRUE(client.ok()) << client.status().message();
    return std::move(client).value();
  }

  std::string MustCall(Client& client, const std::string& request) {
    StatusOr<std::string> response = client.Call(request, kCallTimeoutMs);
    EXPECT_TRUE(response.ok()) << response.status().message();
    return response.ok() ? response.value() : std::string();
  }

  std::unique_ptr<Service> service_;
  std::unique_ptr<Server> server_;
  std::string socket_path_;
};

TEST_F(SvcServerTest, EndToEndRequestResponse) {
  StartServer();
  Client client = MustConnect();

  std::string line = MustCall(
      client,
      "{\"op\":\"determinacy\",\"id\":1,\"schema\":\"R/2\","
      "\"views\":[\"V(x,y) :- R(x,y)\"],\"query\":\"Q(x) :- R(x,y)\"}");
  std::optional<obs::json::Value> v = MustJson(line);
  ASSERT_TRUE(v.has_value());
  const obs::json::Value* ok = v->Find("ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_TRUE(ok->bool_value);
  EXPECT_EQ(v->StringOr("outcome", ""), "COMPLETE");
  EXPECT_EQ(v->IntOr("id", -1), 1);

  // Several requests on one connection, answered in order.
  for (int i = 0; i < 5; ++i) {
    std::string health = MustCall(client, "{\"op\":\"health\"}");
    EXPECT_NE(health.find("\"ok\":true"), std::string::npos) << health;
  }
  EXPECT_GE(server_->connections_accepted(), 1u);
}

TEST_F(SvcServerTest, MalformedFrameGetsBadRequestConnectionSurvives) {
  StartServer();
  Client client = MustConnect();

  std::string rejection = MustCall(client, "this is not json");
  std::optional<obs::json::Value> v = MustJson(rejection);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->StringOr("code", ""), "bad_request");

  // Recovery, not teardown: the same connection still serves.
  std::string health = MustCall(client, "{\"op\":\"health\"}");
  EXPECT_NE(health.find("\"ok\":true"), std::string::npos);
}

TEST_F(SvcServerTest, OversizeFrameRejectedThenResynced) {
  StartServer();
  Client client = MustConnect();

  // One hostile frame past the 1 MiB cap: exactly one structured rejection,
  // input discarded to the newline, connection intact.
  std::string huge(kMaxRequestBytes + 1024, 'x');
  std::string rejection = MustCall(client, huge);
  std::optional<obs::json::Value> v = MustJson(rejection);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->StringOr("code", ""), "frame_too_large");

  std::string health = MustCall(client, "{\"op\":\"health\"}");
  EXPECT_NE(health.find("\"ok\":true"), std::string::npos);
}

TEST_F(SvcServerTest, BlankAndCrlfFramesAreSkipped) {
  StartServer();
  Client client = MustConnect();

  // The embedded newline makes two frames: an empty one (skipped, no
  // response) and the health request (answered) — so Call's single read
  // maps to the health response.
  std::string health = MustCall(client, "\r\n{\"op\":\"health\"}");
  EXPECT_NE(health.find("\"ok\":true"), std::string::npos);
}

TEST_F(SvcServerTest, IdleConnectionIsClosed) {
  ServerOptions options;
  options.idle_timeout_ms = 150;
  StartServer(options);
  Client client = MustConnect();

  // Past the idle timeout the server has closed its end; the next call
  // fails with a transport error instead of hanging.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  StatusOr<std::string> response =
      client.Call("{\"op\":\"health\"}", kCallTimeoutMs);
  EXPECT_FALSE(response.ok());

  // A fresh connection works: the timeout is per-connection policy.
  Client again = MustConnect();
  std::string health = MustCall(again, "{\"op\":\"health\"}");
  EXPECT_NE(health.find("\"ok\":true"), std::string::npos);
}

TEST_F(SvcServerTest, ShutdownDrainsAndUnlinksSocket) {
  StartServer();
  {
    Client client = MustConnect();
    std::string health = MustCall(client, "{\"op\":\"health\"}");
    EXPECT_NE(health.find("\"ok\":true"), std::string::npos);
  }

  server_->Shutdown();
  EXPECT_TRUE(service_->draining());
  EXPECT_EQ(service_->in_flight(), 0u);

  // The socket path is gone and no longer accepts connections.
  struct stat st{};
  EXPECT_NE(::stat(socket_path_.c_str(), &st), 0);
  EXPECT_FALSE(Client::Connect(socket_path_).ok());

  server_->Shutdown();  // idempotent
}

TEST_F(SvcServerTest, FinishedConnectionThreadsAreJoined) {
  StartServer();
  // A finished connection's thread is joined while the server runs, not
  // at Shutdown(): a joinable thread's stack stays mapped until its join.
  constexpr int kConnections = 200;
  for (int i = 0; i < kConnections; ++i) {
    Client client = MustConnect();
    std::string health = MustCall(client, "{\"op\":\"health\"}");
    ASSERT_NE(health.find("\"ok\":true"), std::string::npos) << health;
  }
  EXPECT_EQ(server_->connections_accepted(),
            static_cast<std::uint64_t>(kConnections));
  EXPECT_LE(server_->connection_threads_held(), 8u);
}

TEST_F(SvcServerTest, StartRejectsBadPaths) {
  ServiceOptions service_options;
  Service service(service_options);
  {
    Server server(service, ServerOptions{});  // empty socket_path
    EXPECT_FALSE(server.Start().ok());
  }
  {
    ServerOptions options;
    options.socket_path = "/tmp/" + std::string(200, 'x') + ".sock";
    Server server(service, options);
    EXPECT_FALSE(server.Start().ok());
  }
}

}  // namespace
}  // namespace vqdr::svc
