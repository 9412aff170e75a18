// End-to-end server tests over real TCP on an ephemeral loopback port:
// session lifecycle, hostile frames, admission shedding under load,
// disconnect-cancel via the watchdog, graceful drain, and deterministic
// fault injection at the accept/frame_read/commit points.

#include "server/server.h"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "server/client.h"

namespace graphql::server {
namespace {

using namespace std::chrono_literals;

constexpr const char* kCollectionText = R"(
graph G1 {
  node v1 <author name="A">;
  node v2 <paper title="P1">;
  edge e1 (v1, v2);
};
)";

constexpr const char* kMatchQuery =
    R"(for graph Q { node a <author>; node p <paper>; edge e (a, p); }
       in doc("D") return Q;)";

/// A CPU-heavy, memory-flat query: every complete assignment fails the
/// cross-node residual predicate, so millions of assignments enumerate
/// without a single match accumulating. The predicate names all five
/// nodes, so the search can only evaluate it on complete assignments.
/// With a session deadline it occupies its admission slot for a bounded,
/// deterministic window.
std::string HeavyCollection() {
  std::string big = "graph Big {\n";
  for (int i = 0; i < 30; ++i) {
    big += "  node n" + std::to_string(i) + " <t x=1>;\n";
  }
  big += "};\n";
  return big;
}

constexpr const char* kHeavyQuery =
    R"(for graph Q { node a <t>; node b <t>; node c <t>; node d <t>;
                     node e <t>; }
       in doc("D") where a.x + b.x + c.x + d.x + e.x > 5 return Q;)";

Request Req(Op op, std::string a = "", std::string b = "") {
  Request r;
  r.op = op;
  r.a = std::move(a);
  r.b = std::move(b);
  return r;
}

/// Starts a server on an ephemeral port and connects a client to it.
class ServerE2E : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {},
                   FaultInjector* injector = nullptr) {
    options.port = 0;
    server_ = std::make_unique<Server>(options);
    if (injector != nullptr) server_->set_fault_injector(injector);
    ASSERT_TRUE(server_->Start().ok());
  }

  Client Connect() {
    Client c;
    EXPECT_TRUE(c.Connect("127.0.0.1", server_->port()).ok());
    return c;
  }

  /// Publishes `text` as shared doc `name` through a throwaway session.
  void PublishDoc(const std::string& name, const std::string& text) {
    Client c = Connect();
    auto load = c.Call(Req(Op::kLoadText, "L", text));
    ASSERT_TRUE(load.ok() && load->code == StatusCode::kOk)
        << (load.ok() ? load->body : load.status().ToString());
    auto pub = c.Call(Req(Op::kPublish, name, "L"));
    ASSERT_TRUE(pub.ok() && pub->code == StatusCode::kOk)
        << (pub.ok() ? pub->body : pub.status().ToString());
  }

  /// Declared before server_ on purpose: members are destroyed in
  /// reverse order, so the server (whose worker threads read the
  /// injector) is torn down first. A test-body-local FaultInjector would
  /// die at the end of TestBody while the server is still serving.
  FaultInjector injector_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerE2E, HelloQueryCloseOverTcp) {
  StartServer();
  PublishDoc("D", kCollectionText);
  Client c = Connect();
  auto hello = c.Call(Req(Op::kHello));
  ASSERT_TRUE(hello.ok());
  EXPECT_NE(hello->body.find("gqld proto=1"), std::string::npos);

  auto q = c.Call(Req(Op::kQuery, kMatchQuery));
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->code, StatusCode::kOk) << q->body;
  EXPECT_NE(q->body.find("returned 1 graphs"), std::string::npos);

  auto bye = c.Call(Req(Op::kClose));
  ASSERT_TRUE(bye.ok());
  EXPECT_EQ(bye->body, "bye");
  // The server closes after a close op: the next read sees EOF.
  EXPECT_FALSE(c.ReadResponse().ok());
}

TEST_F(ServerE2E, SessionsAreIsolatedButStoreIsShared) {
  StartServer();
  Client a = Connect();
  Client b = Connect();
  // a's session-local doc is invisible to b...
  ASSERT_TRUE(a.Call(Req(Op::kLoadText, "D", kCollectionText)).ok());
  auto miss = b.Call(Req(Op::kQuery, kMatchQuery));
  ASSERT_TRUE(miss.ok());
  EXPECT_NE(miss->code, StatusCode::kOk);
  // ...until a publishes it store-wide.
  ASSERT_TRUE(a.Call(Req(Op::kPublish, "D", "D")).ok());
  auto hit = b.Call(Req(Op::kQuery, kMatchQuery));
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->code, StatusCode::kOk) << hit->body;
}

TEST_F(ServerE2E, HostileFramesGetStructuredErrorsNotCrashes) {
  StartServer();
  {
    // An oversized length prefix tears the connection down with a
    // structured parse error first (framing is unrecoverable).
    Client c = Connect();
    ASSERT_TRUE(c.SendRaw(std::string("\xff\xff\xff\xff", 4)).ok());
    auto resp = c.ReadResponse();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->code, StatusCode::kParseError);
    EXPECT_FALSE(c.ReadResponse().ok());  // Connection closed.
  }
  {
    // A well-framed but undecodable body (unknown op) also answers with
    // a structured error; the server survives both.
    Client c = Connect();
    ASSERT_TRUE(c.SendRaw(std::string("\x01\x00\x00\x00\x63", 5)).ok());
    auto resp = c.ReadResponse();
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->code, StatusCode::kParseError);
  }
  EXPECT_GE(server_->counters()->protocol_errors.load(), 2u);
  // The server still serves new connections.
  Client c = Connect();
  auto pong = c.Call(Req(Op::kPing));
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->body, "pong");
}

TEST_F(ServerE2E, SaturationShedsWithRetryAfterInsteadOfQueueing) {
  ServerOptions options;
  options.admission.max_concurrent = 1;
  options.admission.retry_after_ms = 50;
  StartServer(options);
  PublishDoc("D", HeavyCollection());

  // Thread A occupies the only admission slot with deadline-bounded heavy
  // queries; the main thread polls with a second session until it is shed.
  std::atomic<bool> stop{false};
  std::thread occupant([&] {
    Client c = Connect();
    ASSERT_TRUE(c.Call(Req(Op::kSet, "timeout_ms 200")).ok());
    while (!stop.load(std::memory_order_acquire)) {
      auto r = c.Call(Req(Op::kQuery, kHeavyQuery));
      if (!r.ok()) break;
    }
  });

  Client probe = Connect();
  bool shed = false;
  for (int i = 0; i < 200 && !shed; ++i) {
    auto r = probe.Call(Req(Op::kQuery, kMatchQuery));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (r->code == StatusCode::kResourceExhausted) {
      EXPECT_EQ(r->retry_after_ms, 50u);
      EXPECT_NE(r->body.find("saturated"), std::string::npos);
      shed = true;
    }
    std::this_thread::sleep_for(5ms);
  }
  stop.store(true, std::memory_order_release);
  occupant.join();
  EXPECT_TRUE(shed) << "no query was ever shed at saturation";
  EXPECT_GE(server_->counters()->shed_queries.load(), 1u);
}

TEST_F(ServerE2E, DisconnectMidQueryCancelsViaWatchdog) {
  ServerOptions options;
  options.watchdog_interval_ms = 10;
  StartServer(options);
  PublishDoc("D", HeavyCollection());

  // Fire a heavy query (30^5 assignment enumeration: effectively forever
  // without intervention) and vanish without reading the response.
  {
    Client c = Connect();
    ASSERT_TRUE(c.SendRaw(EncodeRequest(Req(Op::kQuery, kHeavyQuery))).ok());
    std::this_thread::sleep_for(50ms);  // Let the query start.
    c.Close();
  }
  // The watchdog maps the hangup to ResourceGovernor::Cancel(); the slot
  // frees within one governor check interval.
  bool cancelled = false;
  for (int i = 0; i < 200 && !cancelled; ++i) {
    cancelled = server_->counters()->disconnect_cancels.load() >= 1;
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(cancelled) << "watchdog never cancelled the vanished client";
  // The freed slot admits new work.
  Client c = Connect();
  auto pong = c.Call(Req(Op::kPing));
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->body, "pong");
}

TEST_F(ServerE2E, GracefulDrainFinishesInFlightWork) {
  ServerOptions options;
  options.drain_grace_ms = 5000;
  StartServer(options);
  PublishDoc("D", kCollectionText);

  // A connection parked mid-session (no request in flight).
  Client parked = Connect();
  ASSERT_TRUE(parked.Call(Req(Op::kPing)).ok());

  std::atomic<bool> got_answer{false};
  Client inflight = Connect();
  std::thread worker([&] {
    auto r = inflight.Call(Req(Op::kQuery, kMatchQuery));
    // Shutdown raced the request: either the full answer or a shed/EOF is
    // acceptable, but a completed query must carry its real result.
    if (r.ok() && r->code == StatusCode::kOk) {
      EXPECT_NE(r->body.find("returned 1 graphs"), std::string::npos);
      got_answer.store(true);
    }
  });
  std::this_thread::sleep_for(20ms);
  server_->Shutdown();
  worker.join();
  EXPECT_EQ(server_->active_connections(), 0);
  // New connections are refused after shutdown.
  Client late;
  EXPECT_FALSE(late.Connect("127.0.0.1", server_->port()).ok());
}

TEST_F(ServerE2E, DrainShedsNewQueriesDuringGrace) {
  ServerOptions options;
  options.drain_grace_ms = 2000;
  StartServer(options);
  PublishDoc("D", HeavyCollection());

  // Occupy a worker with a deadline-bounded heavy query so Shutdown() has
  // something to drain, then verify Shutdown completes within the grace
  // period (the query's 300ms deadline ends it well before 2s).
  Client c = Connect();
  ASSERT_TRUE(c.Call(Req(Op::kSet, "timeout_ms 300")).ok());
  ASSERT_TRUE(c.SendRaw(EncodeRequest(Req(Op::kQuery, kHeavyQuery))).ok());
  std::this_thread::sleep_for(30ms);

  auto t0 = std::chrono::steady_clock::now();
  server_->Shutdown();
  auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, 1500ms) << "drain waited past the in-flight deadline";
}

TEST_F(ServerE2E, AcceptFaultClosesNthConnection) {
  injector_.AddRule(GovernPoint::kAccept, 2, TripKind::kMemory);
  StartServer({}, &injector_);

  Client first = Connect();
  auto pong = first.Call(Req(Op::kPing));
  ASSERT_TRUE(pong.ok());

  // The second accepted connection is closed before any frame exchange.
  Client second = Connect();
  EXPECT_FALSE(second.Call(Req(Op::kPing)).ok());
  EXPECT_EQ(server_->counters()->injected_accept_faults.load(), 1u);

  // The third connection is served normally; the first still works too.
  Client third = Connect();
  ASSERT_TRUE(third.Call(Req(Op::kPing)).ok());
  ASSERT_TRUE(first.Call(Req(Op::kPing)).ok());
}

TEST_F(ServerE2E, FrameReadFaultAnswersStructuredErrorAndSurvives) {
  injector_.AddRule(GovernPoint::kFrameRead, 2, TripKind::kMemory);
  StartServer({}, &injector_);

  Client c = Connect();
  ASSERT_TRUE(c.Call(Req(Op::kPing)).ok());
  // The second frame read fails deterministically: a structured error
  // comes back and the connection survives.
  auto faulted = c.Call(Req(Op::kPing));
  ASSERT_TRUE(faulted.ok());
  EXPECT_EQ(faulted->code, StatusCode::kResourceExhausted);
  EXPECT_NE(faulted->body.find("injected"), std::string::npos);
  auto after = c.Call(Req(Op::kPing));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->body, "pong");
  EXPECT_EQ(server_->counters()->injected_frame_faults.load(), 1u);
}

TEST_F(ServerE2E, FrameReadCancelFaultTearsConnectionDown) {
  injector_.AddRule(GovernPoint::kFrameRead, 1, TripKind::kCancelled);
  StartServer({}, &injector_);
  Client c = Connect();
  EXPECT_FALSE(c.Call(Req(Op::kPing)).ok());
}

TEST_F(ServerE2E, CommitFaultAbortsPublishButNotTheStore) {
  injector_.AddRule(GovernPoint::kCommit, 1, TripKind::kMemory);
  StartServer({}, &injector_);

  Client c = Connect();
  ASSERT_TRUE(c.Call(Req(Op::kLoadText, "L", kCollectionText)).ok());
  auto aborted = c.Call(Req(Op::kPublish, "D", "L"));
  ASSERT_TRUE(aborted.ok());
  EXPECT_EQ(aborted->code, StatusCode::kResourceExhausted);
  EXPECT_EQ(server_->store()->version(), 0u);
  EXPECT_EQ(server_->store()->aborted_commits(), 1u);

  // The very next commit goes through and readers see it.
  auto ok = c.Call(Req(Op::kPublish, "D", "L"));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->code, StatusCode::kOk) << ok->body;
  auto q = c.Call(Req(Op::kQuery, kMatchQuery));
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->code, StatusCode::kOk);
}

// Many concurrent sessions mixing reads, writes, heavy governed queries,
// and abrupt disconnects, with the store hammered throughout. The test
// asserts the server stays consistent (every successful read matches a
// committed version's content) and shuts down cleanly. Runs in the TSan
// CI lane.
TEST_F(ServerE2E, ConcurrentReadersWritersAndKillersStayConsistent) {
  ServerOptions options;
  options.watchdog_interval_ms = 10;
  StartServer(options);
  PublishDoc("D", kCollectionText);

  constexpr int kThreads = 6;
  constexpr int kOpsPerThread = 30;
  std::atomic<uint64_t> ok_reads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Client c;
      if (!c.Connect("127.0.0.1", server_->port()).ok()) return;
      for (int i = 0; i < kOpsPerThread; ++i) {
        switch ((t + i) % 4) {
          case 0: {  // Read: either a consistent hit or a clean miss.
            auto r = c.Call(Req(Op::kQuery, kMatchQuery));
            if (!r.ok()) return;  // Torn connection (killer ran): done.
            if (r->code == StatusCode::kOk &&
                r->body.find("returned") != std::string::npos) {
              ok_reads.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          }
          case 1: {  // Write: republish D.
            if (!c.Call(Req(Op::kLoadText, "L", kCollectionText)).ok() ||
                !c.Call(Req(Op::kPublish, "D", "L")).ok()) {
              return;
            }
            break;
          }
          case 2: {  // Abrupt disconnect mid-query, then reconnect.
            if (!c.SendRaw(EncodeRequest(Req(Op::kQuery, kMatchQuery)))
                     .ok()) {
              return;
            }
            c.Close();
            if (!c.Connect("127.0.0.1", server_->port()).ok()) return;
            break;
          }
          default: {  // Stats keep the observability paths racing too.
            if (!c.Call(Req(Op::kStats)).ok()) return;
            break;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(ok_reads.load(), 0u);
  // Every commit that succeeded is in the version chain; nothing tore.
  EXPECT_EQ(server_->store()->version(), server_->store()->commits());
  server_->Shutdown();
  EXPECT_EQ(server_->active_connections(), 0);
}

}  // namespace
}  // namespace graphql::server
