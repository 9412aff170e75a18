// Session-layer tests against the transport-free core: Handle() is called
// directly with decoded requests, exactly as the TCP server does. Covers
// parameter substitution, per-session limits, local/shared doc visibility,
// prepared queries, admission shedding, draining, and the shared flight
// recorder's session labels.

#include "server/session.h"

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/recorder.h"
#include "server/admission.h"
#include "server/store.h"
#include "workload/erdos_renyi.h"

namespace graphql::server {
namespace {

constexpr const char* kCollectionText = R"(
graph G1 <booktitle="SIGMOD"> {
  node v1 <author name="A">;
  node v2 <paper title="P1">;
  edge e1 (v1, v2);
};
)";

constexpr const char* kMatchQuery =
    R"(for graph Q { node a <author>; node p <paper>; edge e (a, p); }
       in doc("D") return Q;)";

class ServerSessionTest : public ::testing::Test {
 protected:
  ServerSessionTest() : admission_(AdmissionConfig{}) {
    ctx_.store = &store_;
    ctx_.admission = &admission_;
    ctx_.counters = &counters_;
  }

  Session MakeSession(uint64_t id = 1) { return Session(id, ctx_); }

  static Request Req(Op op, std::string a = "", std::string b = "") {
    Request r;
    r.op = op;
    r.a = std::move(a);
    r.b = std::move(b);
    return r;
  }

  GraphStore store_;
  AdmissionController admission_;
  ServerCounters counters_;
  SessionContext ctx_;
};

TEST(SubstituteParamsTest, SubstitutesLiterals) {
  std::vector<Value> params;
  params.push_back(Value(int64_t{42}));
  params.push_back(Value("O'Brien \"Bob\"\n"));
  params.push_back(Value(2.5));
  params.push_back(Value(true));
  auto r = SubstituteParams("where a.x > $1 & a.n = $2 & a.w < $3 & a.f = $4",
                            params);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r,
            "where a.x > 42 & a.n = \"O'Brien \\\"Bob\\\"\\n\" & a.w < 2.5 "
            "& a.f = true");
}

TEST(SubstituteParamsTest, LeavesStringsAndCommentsAlone) {
  std::vector<Value> params;
  params.push_back(Value(int64_t{7}));
  auto r = SubstituteParams(
      "// costs $1 here\nwhere a.n = \"$1\" & a.x = $1", params);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "// costs $1 here\nwhere a.n = \"$1\" & a.x = 7");
  // An escaped quote does not end the string early.
  auto r2 = SubstituteParams("where a.n = \"x\\\"$1\" & a.y = $1", params);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, "where a.n = \"x\\\"$1\" & a.y = 7");
}

TEST(SubstituteParamsTest, RecordsRenderedLiteralSites) {
  std::vector<Value> params;
  params.push_back(Value(int64_t{42}));
  params.push_back(Value("ab"));
  std::vector<exec::PreparedParam> sites;
  auto r = SubstituteParams("where a.x > $1\n  & a.n == $2 & a.y == $1",
                            params, &sites);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, "where a.x > 42\n  & a.n == \"ab\" & a.y == 42");
  ASSERT_EQ(sites.size(), 3u);
  // "42" starts at line 1 column 13 (1-based).
  EXPECT_EQ(sites[0].line, 1);
  EXPECT_EQ(sites[0].column, 13);
  EXPECT_EQ(sites[0].index, 0u);
  // "\"ab\"" starts on line 2 where the placeholder was, at the quote.
  EXPECT_EQ(sites[1].line, 2);
  EXPECT_EQ(sites[1].column, 12);
  EXPECT_EQ(sites[1].index, 1u);
  // The second $1 lands after the widened $2 rendering.
  EXPECT_EQ(sites[2].line, 2);
  EXPECT_EQ(sites[2].column, 26);
  EXPECT_EQ(sites[2].index, 0u);
}

TEST(SubstituteParamsTest, MissingParameterIsAnError) {
  std::vector<Value> params;
  params.push_back(Value(int64_t{1}));
  EXPECT_EQ(SubstituteParams("$2", params).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SubstituteParams("$0", params).status().code(),
            StatusCode::kInvalidArgument);
  // A bare $ with no digit passes through untouched.
  auto r = SubstituteParams("a$b $ $x", params);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "a$b $ $x");
}

TEST_F(ServerSessionTest, HelloPingClose) {
  Session s = MakeSession(7);
  Response hello = s.Handle(Req(Op::kHello));
  EXPECT_EQ(hello.code, StatusCode::kOk);
  EXPECT_NE(hello.body.find("session=s7"), std::string::npos);
  EXPECT_EQ(s.Handle(Req(Op::kPing)).body, "pong");
  EXPECT_FALSE(s.closed());
  EXPECT_EQ(s.Handle(Req(Op::kClose)).body, "bye");
  EXPECT_TRUE(s.closed());
}

TEST_F(ServerSessionTest, SetAdjustsLimits) {
  Session s = MakeSession();
  Response r = s.Handle(Req(Op::kSet, "timeout_ms 500"));
  EXPECT_EQ(r.code, StatusCode::kOk);
  EXPECT_NE(r.body.find("timeout_ms=500"), std::string::npos);
  r = s.Handle(Req(Op::kSet, "max_memory_mb 8"));
  EXPECT_NE(r.body.find("max_memory_mb=8"), std::string::npos);
  EXPECT_EQ(s.Handle(Req(Op::kSet, "plan_cache 1")).code, StatusCode::kOk);
  EXPECT_EQ(s.evaluator()->plan_cache()->max_bytes(), size_t{1} << 20);
  EXPECT_EQ(s.Handle(Req(Op::kSet, "bogus 3")).code,
            StatusCode::kInvalidArgument);
  Response usage = s.Handle(Req(Op::kSet, "timeout_ms"));
  EXPECT_EQ(usage.code, StatusCode::kInvalidArgument);
  EXPECT_NE(usage.body.find(
                "usage: set {timeout_ms|max_steps|max_memory_mb|threads|"
                "plan_cache} N"),
            std::string::npos)
      << usage.body;
  EXPECT_EQ(s.Handle(Req(Op::kSet, "timeout_ms -4")).code,
            StatusCode::kInvalidArgument);
}

TEST_F(ServerSessionTest, LoadTextThenQueryLocalDoc) {
  Session s = MakeSession();
  Response load = s.Handle(Req(Op::kLoadText, "D", kCollectionText));
  ASSERT_EQ(load.code, StatusCode::kOk) << load.body;
  EXPECT_NE(load.body.find("1 graphs"), std::string::npos);

  Response q = s.Handle(Req(Op::kQuery, kMatchQuery));
  ASSERT_EQ(q.code, StatusCode::kOk) << q.body;
  EXPECT_NE(q.body.find("returned 1 graphs"), std::string::npos);

  // The doc is session-local: a second session cannot see it.
  Session other = MakeSession(2);
  Response miss = other.Handle(Req(Op::kQuery, kMatchQuery));
  EXPECT_NE(miss.code, StatusCode::kOk);
}

TEST_F(ServerSessionTest, PublishMakesDocVisibleToOtherSessions) {
  Session writer = MakeSession(1);
  ASSERT_EQ(writer.Handle(Req(Op::kLoadText, "L", kCollectionText)).code,
            StatusCode::kOk);
  Response pub = writer.Handle(Req(Op::kPublish, "D", "L"));
  ASSERT_EQ(pub.code, StatusCode::kOk) << pub.body;
  EXPECT_NE(pub.body.find("version 1"), std::string::npos);

  Session reader = MakeSession(2);
  Response q = reader.Handle(Req(Op::kQuery, kMatchQuery));
  ASSERT_EQ(q.code, StatusCode::kOk) << q.body;
  EXPECT_NE(q.body.find("returned 1 graphs"), std::string::npos);

  // Publishing something that does not exist is a structured error.
  EXPECT_EQ(writer.Handle(Req(Op::kPublish, "D", "nope")).code,
            StatusCode::kNotFound);
  // Dropping through the session works and is visible store-wide.
  EXPECT_EQ(writer.Handle(Req(Op::kDrop, "D")).code, StatusCode::kOk);
  EXPECT_NE(reader.Handle(Req(Op::kQuery, kMatchQuery)).code,
            StatusCode::kOk);
}

TEST_F(ServerSessionTest, LocalDocShadowsSharedDoc) {
  // Shared doc "D" has an author+paper pair; the session's local "D" has
  // two such graphs. The query must see the local one.
  Session setup = MakeSession(1);
  ASSERT_EQ(setup.Handle(Req(Op::kLoadText, "L", kCollectionText)).code,
            StatusCode::kOk);
  ASSERT_EQ(setup.Handle(Req(Op::kPublish, "D", "L")).code, StatusCode::kOk);

  std::string two_graphs = std::string(kCollectionText) + R"(
graph G2 {
  node v1 <author name="B">;
  node v2 <paper title="P2">;
  edge e1 (v1, v2);
};
)";
  Session s = MakeSession(2);
  ASSERT_EQ(s.Handle(Req(Op::kLoadText, "D", two_graphs)).code,
            StatusCode::kOk);
  Response q = s.Handle(Req(Op::kQuery, kMatchQuery));
  ASSERT_EQ(q.code, StatusCode::kOk) << q.body;
  EXPECT_NE(q.body.find("returned 2 graphs"), std::string::npos);
}

TEST_F(ServerSessionTest, PrepareExecuteRoundTrip) {
  Session s = MakeSession();
  ASSERT_EQ(s.Handle(Req(Op::kLoadText, "D", kCollectionText)).code,
            StatusCode::kOk);
  Response prep = s.Handle(Req(
      Op::kPrepare, "by_name",
      R"(for graph Q { node a <author name=$1>; node p <paper>; edge e (a, p); }
         in doc("D") return Q;)"));
  ASSERT_EQ(prep.code, StatusCode::kOk) << prep.body;
  EXPECT_NE(prep.body.find("1 params"), std::string::npos);

  Request exec = Req(Op::kExecute, "by_name");
  exec.params.push_back(Value("A"));
  Response hit = s.Handle(exec);
  ASSERT_EQ(hit.code, StatusCode::kOk) << hit.body;
  EXPECT_NE(hit.body.find("returned 1 graphs"), std::string::npos);

  exec.params[0] = Value("nobody");
  Response miss = s.Handle(exec);
  ASSERT_EQ(miss.code, StatusCode::kOk) << miss.body;
  EXPECT_EQ(miss.body.find("returned"), std::string::npos);
}

TEST_F(ServerSessionTest, ExecuteSharesOnePlanAcrossParameterValues) {
  // A where-clause parameter: executions with different values must share
  // a single plan-cache entry (the evaluator patches the bound literal),
  // while still answering each value correctly.
  Session s = MakeSession();
  ASSERT_EQ(s.Handle(Req(Op::kLoadText, "D", kCollectionText)).code,
            StatusCode::kOk);
  ASSERT_EQ(s.Handle(Req(Op::kPrepare, "by_venue",
                         R"(for graph Q { node a <author>; }
                            in doc("D") where Q.booktitle == $1 return Q;)"))
                .code,
            StatusCode::kOk);

  Request exec = Req(Op::kExecute, "by_venue");
  exec.params.push_back(Value("SIGMOD"));
  Response match = s.Handle(exec);
  ASSERT_EQ(match.code, StatusCode::kOk) << match.body;
  EXPECT_NE(match.body.find("returned 1 graphs"), std::string::npos);
  ASSERT_NE(s.evaluator()->plan_cache(), nullptr);
  EXPECT_EQ(s.evaluator()->plan_cache()->entries(), 1u);

  exec.params[0] = Value("VLDB");
  Response none = s.Handle(exec);
  ASSERT_EQ(none.code, StatusCode::kOk) << none.body;
  EXPECT_EQ(none.body.find("returned"), std::string::npos);
  // Same entry served both values.
  EXPECT_EQ(s.evaluator()->plan_cache()->entries(), 1u);
  EXPECT_EQ(
      s.evaluator()->metrics()->GetCounter("plan_cache.hit")->Value(), 1u);
}

TEST_F(ServerSessionTest, PrepareRejectsMalformedAndExecuteValidates) {
  Session s = MakeSession();
  // Parse errors surface at prepare time, not on the Nth execute.
  EXPECT_EQ(s.Handle(Req(Op::kPrepare, "bad", "for graph { oops")).code,
            StatusCode::kParseError);
  EXPECT_EQ(s.Handle(Req(Op::kPrepare, "", "for G in doc(\"D\") return G;"))
                .code,
            StatusCode::kInvalidArgument);
  // Executing something never prepared.
  EXPECT_EQ(s.Handle(Req(Op::kExecute, "ghost")).code, StatusCode::kNotFound);
  // Executing with too few parameters.
  ASSERT_EQ(s.Handle(Req(Op::kPrepare, "q",
                         R"(for graph Q { node a <t x=$1>; }
                            in doc("D") return Q;)"))
                .code,
            StatusCode::kOk);
  EXPECT_EQ(s.Handle(Req(Op::kExecute, "q")).code,
            StatusCode::kInvalidArgument);
}

TEST_F(ServerSessionTest, SaturatedAdmissionShedsWithRetryAfter) {
  AdmissionConfig config;
  config.max_concurrent = 1;
  config.retry_after_ms = 250;
  AdmissionController tight(config);
  ctx_.admission = &tight;
  Session s = MakeSession();
  ASSERT_EQ(s.Handle(Req(Op::kLoadText, "D", kCollectionText)).code,
            StatusCode::kOk);

  // Hold the only slot; the query must shed, not queue.
  std::optional<AdmissionController::Ticket> slot = tight.TryAdmit(0);
  ASSERT_TRUE(slot.has_value());
  Response shed = s.Handle(Req(Op::kQuery, kMatchQuery));
  EXPECT_EQ(shed.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(shed.retry_after_ms, 250u);
  EXPECT_EQ(counters_.shed_queries.load(), 1u);
  EXPECT_EQ(tight.shed(), 1u);

  // Slot released → the same query is admitted.
  slot->Release();
  EXPECT_EQ(s.Handle(Req(Op::kQuery, kMatchQuery)).code, StatusCode::kOk);
}

TEST_F(ServerSessionTest, DrainingShedsWorkButKeepsCheapOps) {
  std::atomic<bool> draining{true};
  ctx_.draining = &draining;
  Session s = MakeSession();
  EXPECT_EQ(s.Handle(Req(Op::kQuery, "for G in doc(\"D\") return G;")).code,
            StatusCode::kResourceExhausted);
  EXPECT_EQ(s.Handle(Req(Op::kPublish, "D", "x")).code,
            StatusCode::kResourceExhausted);
  EXPECT_EQ(s.Handle(Req(Op::kDrop, "D")).code,
            StatusCode::kResourceExhausted);
  EXPECT_EQ(s.Handle(Req(Op::kPing)).body, "pong");
  EXPECT_EQ(s.Handle(Req(Op::kStats)).code, StatusCode::kOk);
  EXPECT_EQ(s.Handle(Req(Op::kClose)).body, "bye");
}

TEST_F(ServerSessionTest, ServerTimeoutCapBoundsRunawayQueries) {
  // A 30-node edge-free graph where every complete assignment fails the
  // residual predicate, which names all five nodes so that only complete
  // assignments can evaluate it: ~30^5 assignments enumerate with flat
  // memory, so only the deadline can end the query. The server-wide cap
  // applies because the session never set a timeout of its own.
  std::string big = "graph Big {\n";
  for (int i = 0; i < 30; ++i) {
    big += "  node n" + std::to_string(i) + " <t x=1>;\n";
  }
  big += "};\n";
  ctx_.max_timeout_ms = 50;
  Session s = MakeSession();
  ASSERT_EQ(s.Handle(Req(Op::kLoadText, "D", big)).code, StatusCode::kOk);
  Response r = s.Handle(Req(
      Op::kQuery,
      R"(for graph Q { node a <t>; node b <t>; node c <t>; node d <t>;
                       node e <t>; }
         in doc("D") where a.x + b.x + c.x + d.x + e.x > 5 return Q;)"));
  EXPECT_EQ(r.code, StatusCode::kDeadlineExceeded) << r.body;
  EXPECT_NE(r.body.find("deadline"), std::string::npos) << r.body;
}

TEST_F(ServerSessionTest, SharedRecorderTagsRecordsWithSessionLabel) {
  obs::FlightRecorder recorder;
  ctx_.recorder = &recorder;
  Session a = MakeSession(3);
  Session b = MakeSession(4);
  ASSERT_EQ(a.Handle(Req(Op::kLoadText, "D", kCollectionText)).code,
            StatusCode::kOk);
  ASSERT_EQ(b.Handle(Req(Op::kLoadText, "D", kCollectionText)).code,
            StatusCode::kOk);
  ASSERT_EQ(a.Handle(Req(Op::kQuery, kMatchQuery)).code, StatusCode::kOk);
  ASSERT_EQ(b.Handle(Req(Op::kQuery, kMatchQuery)).code, StatusCode::kOk);

  // Both sessions' queries landed in the one recorder, tagged; either
  // session's recent view shows both labels.
  Response recent = a.Handle(Req(Op::kRecent));
  EXPECT_NE(recent.body.find("[s3]"), std::string::npos) << recent.body;
  EXPECT_NE(recent.body.find("[s4]"), std::string::npos) << recent.body;
}

TEST_F(ServerSessionTest, StatsRendersStoreAdmissionAndCounters) {
  Session s = MakeSession();
  ASSERT_EQ(s.Handle(Req(Op::kLoadText, "L", kCollectionText)).code,
            StatusCode::kOk);
  ASSERT_EQ(s.Handle(Req(Op::kPublish, "D", "L")).code, StatusCode::kOk);
  Response stats = s.Handle(Req(Op::kStats));
  ASSERT_EQ(stats.code, StatusCode::kOk);
  EXPECT_NE(stats.body.find("store: version=1"), std::string::npos)
      << stats.body;
  EXPECT_NE(stats.body.find("doc(\"D\")"), std::string::npos);
  EXPECT_NE(stats.body.find("admission: active=0"), std::string::npos);
  EXPECT_NE(stats.body.find("server: connections="), std::string::npos);
}

TEST_F(ServerSessionTest, SnapshotIsolationAcrossPublishes) {
  // A session that queried version 1 keeps getting correct results after
  // another session replaces the doc: each query pins the *current*
  // snapshot, so the second query sees version 2 — but never a torn mix.
  Session writer = MakeSession(1);
  ASSERT_EQ(writer.Handle(Req(Op::kLoadText, "L", kCollectionText)).code,
            StatusCode::kOk);
  ASSERT_EQ(writer.Handle(Req(Op::kPublish, "D", "L")).code, StatusCode::kOk);

  Session reader = MakeSession(2);
  Response q1 = reader.Handle(Req(Op::kQuery, kMatchQuery));
  ASSERT_EQ(q1.code, StatusCode::kOk);
  EXPECT_NE(q1.body.find("returned 1 graphs"), std::string::npos);

  // Replace D with an empty-match collection (no <paper> nodes).
  ASSERT_EQ(writer
                .Handle(Req(Op::kLoadText, "L2",
                            "graph E { node a <author name=\"Z\">; };"))
                .code,
            StatusCode::kOk);
  ASSERT_EQ(writer.Handle(Req(Op::kPublish, "D", "L2")).code,
            StatusCode::kOk);
  Response q2 = reader.Handle(Req(Op::kQuery, kMatchQuery));
  ASSERT_EQ(q2.code, StatusCode::kOk) << q2.body;
  EXPECT_EQ(q2.body.find("returned"), std::string::npos) << q2.body;
}

TEST_F(ServerSessionTest, IndexAndPlansSurviveUnrelatedCommits) {
  // One indexed document (above the 512-node threshold) and one small
  // one. Commits to the small one must leave the indexed document's
  // LabelIndex and the session's cached plans alone; republishing the
  // indexed document builds exactly one new index.
  auto big = [](uint64_t seed) {
    Rng rng(seed);
    workload::ErdosRenyiOptions opts;
    opts.num_nodes = 600;
    opts.num_edges = 1800;
    opts.num_labels = 5;
    GraphCollection c;
    c.Add(workload::MakeErdosRenyi(opts, &rng));
    return c;
  };
  ASSERT_TRUE(store_.Publish("Net", big(1)).ok());
  Session writer = MakeSession(1);
  ASSERT_EQ(writer.Handle(Req(Op::kLoadText, "L", kCollectionText)).code,
            StatusCode::kOk);
  ASSERT_EQ(writer.Handle(Req(Op::kPublish, "D", "L")).code, StatusCode::kOk);

  const char* net_query =
      R"(for graph Q { node a <label="L0">; node b <label="L1">; edge (a, b); }
         exhaustive in doc("Net") return Q;)";
  Session reader = MakeSession(2);
  exec::Evaluator* ev = reader.evaluator();
  auto counter = [&](const char* name) {
    return ev->metrics()->GetCounter(name)->Value();
  };
  Response first = reader.Handle(Req(Op::kQuery, net_query));
  ASSERT_EQ(first.code, StatusCode::kOk) << first.body;
  ASSERT_EQ(reader.Handle(Req(Op::kQuery, kMatchQuery)).code,
            StatusCode::kOk);
  EXPECT_EQ(counter("exec.index.builds"), 1u);

  // Two unrelated commits: republish D, publish a new doc.
  ASSERT_EQ(writer.Handle(Req(Op::kPublish, "D", "L")).code, StatusCode::kOk);
  ASSERT_EQ(writer.Handle(Req(Op::kPublish, "E", "L")).code, StatusCode::kOk);
  Response again = reader.Handle(Req(Op::kQuery, net_query));
  ASSERT_EQ(again.code, StatusCode::kOk) << again.body;
  EXPECT_EQ(again.body, first.body);
  ASSERT_EQ(reader.Handle(Req(Op::kQuery, kMatchQuery)).code,
            StatusCode::kOk);
  EXPECT_EQ(counter("exec.index.builds"), 1u);
  EXPECT_EQ(counter("exec.index.cache_hits"), 1u);
  EXPECT_EQ(counter("plan_cache.hit"), 2u);

  // Republishing the indexed document builds its new index once; the
  // plan still hits and reads the new graph.
  ASSERT_TRUE(store_.Publish("Net", big(2)).ok());
  Response fresh = reader.Handle(Req(Op::kQuery, net_query));
  ASSERT_EQ(fresh.code, StatusCode::kOk) << fresh.body;
  EXPECT_NE(fresh.body, first.body) << "vacuous republish";
  EXPECT_EQ(counter("exec.index.builds"), 2u);
  EXPECT_EQ(counter("plan_cache.hit"), 3u);
}

}  // namespace
}  // namespace graphql::server
