#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "exec/evaluator.h"
#include "motif/deriver.h"

namespace graphql::exec {
namespace {

/// Flight-recorder / EXPLAIN ANALYZE / trace-export integration tests over
/// the Figure 4.13 DBLP collection.
class FlightTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto graphs = motif::GraphsFromProgramSource(R"(
      graph G1 <booktitle="SIGMOD"> {
        node v1 <author name="A">;
        node v2 <author name="B">;
      };
      graph G2 <booktitle="SIGMOD"> {
        node v1 <author name="C">;
        node v2 <author name="D">;
        node v3 <author name="A">;
      };
      graph G3 <booktitle="VLDB"> {
        node v1 <author name="E">;
        node v2 <author name="F">;
      };
    )");
    ASSERT_TRUE(graphs.ok()) << graphs.status();
    GraphCollection dblp;
    for (Graph& g : *graphs) dblp.Add(std::move(g));
    docs_.Register("DBLP", std::move(dblp));
  }

  static constexpr const char* kQuery = R"(
    graph P { node v1 <author>; node v2 <author>; };
    for P exhaustive in doc("DBLP") where P.booktitle == "SIGMOD" return P;
  )";

  DocumentRegistry docs_;
};

TEST_F(FlightTest, RunFillsPerStatementActuals) {
  Evaluator ev(&docs_);
  auto result = ev.RunSource(kQuery);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->actuals.size(), 2u);
  EXPECT_FALSE(result->actuals[0].is_flwr);  // graph-decl
  const StatementActuals& a = result->actuals[1];
  EXPECT_TRUE(a.is_flwr);
  EXPECT_EQ(a.members, 3u);  // One MatchPattern per member graph.
  EXPECT_GT(a.matches, 0u);
  EXPECT_GT(a.steps, 0u);
  EXPECT_GT(a.candidates_attr, 0u);
  EXPECT_GE(a.candidates_retrieved, a.candidates_refined);
  EXPECT_GE(a.wall_us, 0);
  EXPECT_GE(a.us_retrieve + a.us_refine + a.us_order + a.us_search, 0);
}

TEST_F(FlightTest, EveryRunLandsInTheFlightRecorder) {
  Evaluator ev(&docs_);
  ASSERT_TRUE(ev.RunSource(kQuery).ok());
  ASSERT_EQ(ev.recorder()->size(), 1u);
  obs::QueryRecord rec = ev.recorder()->Recent(1)[0];
  EXPECT_TRUE(rec.ok);
  EXPECT_GT(rec.wall_us, 0);
  EXPECT_GT(rec.matches, 0u);
  EXPECT_GT(rec.steps, 0u);
  // The shape is literal-normalized: constants become '?'.
  EXPECT_EQ(rec.shape.find("SIGMOD"), std::string::npos) << rec.shape;
  EXPECT_NE(rec.shape.find("?"), std::string::npos) << rec.shape;
  EXPECT_NE(rec.shape.find("booktitle"), std::string::npos) << rec.shape;
}

TEST_F(FlightTest, ShapeAggregationFoldsDifferentLiterals) {
  Evaluator ev(&docs_);
  ASSERT_TRUE(ev.RunSource(kQuery).ok());
  std::string vldb(kQuery);
  vldb.replace(vldb.find("SIGMOD"), 6, "VLDB");
  ASSERT_TRUE(ev.RunSource(vldb).ok());
  auto top = ev.recorder()->Top(10);
  ASSERT_EQ(top.size(), 1u);  // Same shape despite different constants.
  EXPECT_EQ(top[0].count, 2u);
}

TEST_F(FlightTest, FailedRunIsRecordedWithItsError) {
  Evaluator ev(&docs_);
  auto result = ev.RunSource(R"(
    graph P { node v1 <author>; };
    for P in doc("NoSuchDoc") return P;
  )");
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(ev.recorder()->size(), 1u);
  obs::QueryRecord rec = ev.recorder()->Recent(1)[0];
  EXPECT_FALSE(rec.ok);
  EXPECT_NE(rec.error.find("NoSuchDoc"), std::string::npos);
  EXPECT_NE(rec.ToLine().find("ERROR"), std::string::npos);
}

TEST_F(FlightTest, ExplainAnalyzePrintsEstimatesAndActuals) {
  Evaluator ev(&docs_);
  auto text = ev.ExplainAnalyzeSource(kQuery);
  ASSERT_TRUE(text.ok()) << text.status();
  // Static-plan lines survive...
  EXPECT_NE(text->find("pipeline: retrieve="), std::string::npos) << *text;
  EXPECT_NE(text->find("where-pushdown"), std::string::npos);
  // ...and each statement gained measured actuals.
  EXPECT_NE(text->find("actual:"), std::string::npos);
  EXPECT_NE(text->find("candidates attr="), std::string::npos);
  EXPECT_NE(text->find("est-cost="), std::string::npos);
  EXPECT_NE(text->find("vs search steps="), std::string::npos);
  EXPECT_NE(text->find("snapshot-probes="), std::string::npos);
  EXPECT_NE(text->find("member graphs"), std::string::npos);
  // ANALYZE executed the program: the run reached the flight recorder.
  EXPECT_EQ(ev.recorder()->size(), 1u);

  // Snapshot probes come from the select's own stats, so they are
  // reported with no metrics sink attached.
  auto net = motif::GraphsFromProgramSource(
      "graph N { node a <author>; node b <author>; edge (a, b); };");
  ASSERT_TRUE(net.ok()) << net.status();
  GraphCollection coll;
  coll.Add(std::move((*net)[0]));
  docs_.Register("Net", std::move(coll));
  Evaluator sinkless(&docs_);
  sinkless.mutable_match_options()->metrics = nullptr;
  auto probed = sinkless.ExplainAnalyzeSource(R"(
    graph Q { node v1 <author>; node v2 <author>; edge (v1, v2); };
    for Q exhaustive in doc("Net") return Q;
  )");
  ASSERT_TRUE(probed.ok()) << probed.status();
  ASSERT_NE(probed->find("snapshot-probes="), std::string::npos) << *probed;
  EXPECT_EQ(probed->find("snapshot-probes=0,"), std::string::npos) << *probed;

  // A cross-node conjunct runs once the search binds v1 and v2, so it
  // rejects the chain's a-b prefix before v3 is tried: the search line
  // and the session registry both count it.
  auto chain = motif::GraphsFromProgramSource(
      "graph N { node a <author x=1>; node b <author x=2>;"
      " node c <author x=3>; edge (a, b); edge (b, c); };");
  ASSERT_TRUE(chain.ok()) << chain.status();
  GraphCollection chain_coll;
  chain_coll.Add(std::move((*chain)[0]));
  docs_.Register("Chain", std::move(chain_coll));
  Evaluator placed(&docs_);
  auto rejected = placed.ExplainAnalyzeSource(R"(
    for graph Q { node v1 <author>; node v2 <author>; node v3 <author>;
                  edge (v1, v2); edge (v2, v3); }
      exhaustive in doc("Chain") where v1.x > v2.x return Q;
  )");
  ASSERT_TRUE(rejected.ok()) << rejected.status();
  ASSERT_NE(rejected->find("pred-rejects="), std::string::npos) << *rejected;
  EXPECT_EQ(rejected->find("pred-rejects=0)"), std::string::npos)
      << *rejected;
  EXPECT_GT(placed.metrics()->GetCounter("match.search.pred_rejects")->Value(),
            0u);
}

TEST_F(FlightTest, TrippedRunIsRetainedInSlowLogWithFullTrace) {
  Evaluator ev(&docs_);
  ev.mutable_limits()->max_steps = 1;  // Trip inside the first selection.
  auto result = ev.RunSource(kQuery);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->limits.tripped);
  ASSERT_EQ(ev.recorder()->slow_size(), 1u);
  obs::SlowQueryEntry entry = ev.recorder()->Slow(1)[0];
  EXPECT_TRUE(entry.record.tripped);
  EXPECT_NE(entry.record.trip.find('@'), std::string::npos)
      << entry.record.trip;
  // The governed run traced itself, so the slow entry replays the full
  // span tree down to the pipeline stages.
  EXPECT_NE(entry.trace_text.find("program"), std::string::npos)
      << entry.trace_text;
  EXPECT_NE(entry.trace_text.find("select"), std::string::npos);
  EXPECT_NE(entry.trace_text.find("match"), std::string::npos);
}

TEST_F(FlightTest, TraceExportWritesChromeTraceFile) {
  std::string path = ::testing::TempDir() + "/gql_exec_trace_test.json";
  std::remove(path.c_str());
  Evaluator ev(&docs_);
  ev.set_trace_export_path(path);
  ASSERT_TRUE(ev.RunSource(kQuery).ok());
  ASSERT_TRUE(ev.RunSource(kQuery).ok());  // Accumulates both runs.
  std::ifstream file(path, std::ios::binary);
  ASSERT_TRUE(file.good()) << "trace file not written: " << path;
  std::ostringstream contents;
  contents << file.rdbuf();
  std::string doc = contents.str();
  EXPECT_EQ(doc.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(doc.find("\"name\":\"program\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"select\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"M\""), std::string::npos);
  // Two runs => at least two program spans.
  size_t first = doc.find("\"name\":\"program\",\"cat\":\"gql\",\"ph\":\"B\"");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"program\",\"cat\":\"gql\",\"ph\":\"B\"",
                     first + 1),
            std::string::npos);
  std::remove(path.c_str());
}

TEST_F(FlightTest, ProfilingStillWorksAndFeedsSlowLogProfile) {
  Evaluator ev(&docs_);
  ev.set_profiling(true);
  ev.recorder()->set_slow_threshold_us(1);  // Everything is "slow".
  auto result = ev.RunSource(kQuery);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->profile_json.empty());
  ASSERT_GE(ev.recorder()->slow_size(), 1u);
  obs::SlowQueryEntry entry = ev.recorder()->Slow(1)[0];
  EXPECT_EQ(entry.profile_json, result->profile_json);
  EXPECT_FALSE(entry.trace_json.empty());
}

}  // namespace
}  // namespace graphql::exec
