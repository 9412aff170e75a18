#include "exec/evaluator.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "match/label_index.h"
#include "motif/deriver.h"
#include "workload/dblp.h"
#include "workload/erdos_renyi.h"

namespace graphql::exec {
namespace {

class EvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Figure 4.13's DBLP collection.
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

  DocumentRegistry docs_;
};

TEST_F(EvaluatorTest, CoauthorshipFigure413) {
  Evaluator ev(&docs_);
  auto result = ev.RunSource(R"(
    graph P {
      node v1 <author>;
      node v2 <author>;
    };
    C := graph {};
    for P exhaustive in doc("DBLP") let C := graph {
      graph C;
      node P.v1, P.v2;
      edge e1 (P.v1, P.v2);
      unify P.v1, C.v1 where P.v1.name == C.v1.name;
      unify P.v2, C.v2 where P.v2.name == C.v2.name;
    };
  )");
  ASSERT_TRUE(result.ok()) << result.status();
  const Graph* c = ev.Variable("C");
  ASSERT_NE(c, nullptr);
  // Authors A,B,C,D,E,F; co-author edges AB, CD, CA, DA, EF.
  EXPECT_EQ(c->NumNodes(), 6u);
  EXPECT_EQ(c->NumEdges(), 5u);
  // Collect the edge set by author names.
  std::set<std::pair<std::string, std::string>> edges;
  for (size_t e = 0; e < c->NumEdges(); ++e) {
    const Graph::Edge& ed = c->edge(static_cast<EdgeId>(e));
    std::string a = c->node(ed.src).attrs.GetOrNull("name").AsString();
    std::string b = c->node(ed.dst).attrs.GetOrNull("name").AsString();
    if (b < a) std::swap(a, b);
    edges.insert({a, b});
  }
  std::set<std::pair<std::string, std::string>> want = {
      {"A", "B"}, {"C", "D"}, {"A", "C"}, {"A", "D"}, {"E", "F"}};
  EXPECT_EQ(edges, want);
}

TEST_F(EvaluatorTest, FlwrWhereFiltersByGraphAttr) {
  Evaluator ev(&docs_);
  auto result = ev.RunSource(R"(
    graph P {
      node v1 <author>;
      node v2 <author>;
    } where P.booktitle == "SIGMOD";
    C := graph {};
    for P exhaustive in doc("DBLP") let C := graph {
      graph C;
      node P.v1, P.v2;
      edge e1 (P.v1, P.v2);
      unify P.v1, C.v1 where P.v1.name == C.v1.name;
      unify P.v2, C.v2 where P.v2.name == C.v2.name;
    };
  )");
  ASSERT_TRUE(result.ok()) << result.status();
  const Graph* c = ev.Variable("C");
  ASSERT_NE(c, nullptr);
  // VLDB paper excluded: E and F never appear.
  EXPECT_EQ(c->NumNodes(), 4u);
  EXPECT_EQ(c->NumEdges(), 4u);
}

TEST_F(EvaluatorTest, FlwrLevelWhereClause) {
  // The where can also live on the FLWR expression itself.
  Evaluator ev(&docs_);
  auto result = ev.RunSource(R"(
    graph P { node v1 <author>; node v2 <author>; };
    C := graph {};
    for P exhaustive in doc("DBLP") where P.booktitle == "VLDB"
    let C := graph {
      graph C;
      node P.v1, P.v2;
      edge e1 (P.v1, P.v2);
      unify P.v1, C.v1 where P.v1.name == C.v1.name;
      unify P.v2, C.v2 where P.v2.name == C.v2.name;
    };
  )");
  ASSERT_TRUE(result.ok()) << result.status();
  const Graph* c = ev.Variable("C");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->NumNodes(), 2u);  // Only E and F.
  EXPECT_EQ(c->NumEdges(), 1u);
}

TEST_F(EvaluatorTest, ReturnProducesOneGraphPerMatch) {
  Evaluator ev(&docs_);
  auto result = ev.RunSource(R"(
    graph P { node v <author>; };
    for P exhaustive in doc("DBLP")
      return graph A { node n <who=P.v.name>; };
  )");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->returned.size(), 7u);  // 2 + 3 + 2 authors.
  EXPECT_EQ(result->returned[0].node(0).attrs.GetOrNull("who"), Value("A"));
}

TEST_F(EvaluatorTest, ReturnPatternMaterializesMatch) {
  Evaluator ev(&docs_);
  auto result = ev.RunSource(R"(
    graph P { node v <author>; };
    for P in doc("DBLP") return P;
  )");
  ASSERT_TRUE(result.ok()) << result.status();
  // Non-exhaustive: one match per member graph.
  EXPECT_EQ(result->returned.size(), 3u);
  EXPECT_EQ(result->returned[0].NumNodes(), 1u);
  EXPECT_EQ(result->returned[0].node(0).attrs.GetOrNull("name"), Value("A"));
}

TEST_F(EvaluatorTest, NonExhaustiveLimitsBindings) {
  Evaluator ev(&docs_);
  auto result = ev.RunSource(R"(
    graph P { node v <author>; };
    for P in doc("DBLP") return graph A { node n <who=P.v.name>; };
  )");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->returned.size(), 3u);
}

TEST_F(EvaluatorTest, UnknownDocumentFails) {
  Evaluator ev(&docs_);
  auto result = ev.RunSource(R"(
    graph P { node v; };
    for P in doc("nope") return P;
  )");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(EvaluatorTest, UnknownPatternFails) {
  Evaluator ev(&docs_);
  auto result = ev.RunSource(R"(for Q in doc("DBLP") return Q;)");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(EvaluatorTest, AssignmentBindsVariable) {
  Evaluator ev(&docs_);
  auto result = ev.RunSource(R"(
    X := graph { node a <k=1>; node b; edge (a, b); };
  )");
  ASSERT_TRUE(result.ok()) << result.status();
  const Graph* x = ev.Variable("X");
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(x->NumNodes(), 2u);
  EXPECT_EQ(x->NumEdges(), 1u);
  EXPECT_EQ(x->name(), "X");
}

TEST_F(EvaluatorTest, StatePersistsAcrossRuns) {
  Evaluator ev(&docs_);
  ASSERT_TRUE(ev.RunSource("X := graph { node a; };").ok());
  auto result = ev.RunSource(R"(
    graph P { node v <author>; };
    for P in doc("DBLP") let X := graph { graph X; node P.v; };
  )");
  ASSERT_TRUE(result.ok()) << result.status();
  // X grew by one node per member graph (non-exhaustive).
  EXPECT_EQ(ev.Variable("X")->NumNodes(), 4u);
}

TEST_F(EvaluatorTest, InlinePatternInFor) {
  Evaluator ev(&docs_);
  auto result = ev.RunSource(R"(
    for graph Q { node v <author>; } exhaustive in doc("DBLP")
      return graph A { node n <who=Q.v.name>; };
  )");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->returned.size(), 7u);
}

TEST_F(EvaluatorTest, EmptyPatternWithWhereReturnsNothing) {
  // The FLWR where-clause joins the empty pattern's residual predicate.
  Evaluator ev(&docs_);
  for (const char* where : {"1 < 2", "1 / 0 > 0"}) {
    auto result = ev.RunSource(
        std::string(R"(for graph Q { } in doc("DBLP") where )") + where +
        " return Q;");
    ASSERT_TRUE(result.ok()) << result.status() << " " << where;
    EXPECT_TRUE(result->returned.empty()) << where;
  }
}

TEST(EvaluatorEdgeConjunctTest, ResidualConjunctReadsAnUnconstrainedEdge) {
  // A residual conjunct may read an attribute of a pattern edge that has
  // no attribute or predicate of its own. It sees the data edge the match
  // reports: the lowest-id edge between the images, so of the parallel
  // (a2, b2) edges, the one with w=1.
  auto g = motif::GraphFromSource(R"(graph D {
      node a1 <label="A", s=1>; node b1 <label="B">;
      node a2 <label="A", s=0>; node b2 <label="B">;
      edge (a1, b1) <w=5>; edge (a2, b2) <w=1>; edge (a2, b2) <w=9>;
    })");
  ASSERT_TRUE(g.ok()) << g.status();
  DocumentRegistry docs;
  docs.RegisterGraph("D", std::move(*g));
  const std::string head =
      R"(for graph Q { node u <label="A">; node v <label="B">; edge e (u, v); }
         exhaustive in doc("D") where )";
  for (size_t index_threshold : {size_t{0}, size_t{1}}) {
    for (int threads : {0, 4}) {
      Evaluator ev(&docs);
      ev.set_index_threshold(index_threshold);
      ev.mutable_match_options()->num_threads = threads;
      const std::string where = "threads " + std::to_string(threads) +
                                " index threshold " +
                                std::to_string(index_threshold);
      auto one = ev.RunSource(head + "e.w + u.s > 2 return Q;");
      ASSERT_TRUE(one.ok()) << one.status() << " " << where;
      ASSERT_EQ(one->returned.size(), 1u) << where;
      ASSERT_EQ(one->returned[0].NumEdges(), 1u) << where;
      EXPECT_EQ(one->returned[0].edge(0).attrs.Get("w"), Value(int64_t{5}))
          << where;
      auto both = ev.RunSource(head + "e.w + u.s > 0 return Q;");
      ASSERT_TRUE(both.ok()) << both.status() << " " << where;
      std::multiset<int64_t> weights;
      for (const Graph& m : both->returned) {
        ASSERT_EQ(m.NumEdges(), 1u) << where;
        weights.insert(m.edge(0).attrs.Get("w")->AsInt());
      }
      EXPECT_EQ(weights, (std::multiset<int64_t>{1, 5})) << where;
    }
  }
}

TEST(EvaluatorAutoIndexTest, LargeDocGraphGetsIndexedOnce) {
  // One large member graph: the evaluator builds a LabelIndex lazily and
  // reuses it across FLWR statements; results are unchanged.
  Rng rng(77);
  workload::ErdosRenyiOptions opts;
  opts.num_nodes = 1000;
  opts.num_edges = 3000;
  opts.num_labels = 5;
  Graph big = workload::MakeErdosRenyi(opts, &rng);
  DocumentRegistry docs;
  docs.RegisterGraph("big", std::move(big));

  const char* query = R"(
    for graph Q { node a <label="L0">; node b <label="L1">; edge (a, b); }
      exhaustive in doc("big")
      return graph R { node n; };
  )";

  Evaluator indexed(&docs);
  auto r1 = indexed.RunSource(query);
  ASSERT_TRUE(r1.ok()) << r1.status();
  EXPECT_EQ(indexed.indexes_built(), 1u);
  auto r1again = indexed.RunSource(query);
  ASSERT_TRUE(r1again.ok());
  EXPECT_EQ(indexed.indexes_built(), 1u);  // Cached, not rebuilt.

  Evaluator scanning(&docs);
  scanning.set_index_threshold(0);
  auto r2 = scanning.RunSource(query);
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(scanning.indexes_built(), 0u);
  EXPECT_EQ(r1->returned.size(), r2->returned.size());
  EXPECT_GT(r1->returned.size(), 0u);
}

Graph BigGraph(uint64_t seed) {
  Rng rng(seed);
  workload::ErdosRenyiOptions opts;
  opts.num_nodes = 1000;
  opts.num_edges = 3000;
  opts.num_labels = 5;
  return workload::MakeErdosRenyi(opts, &rng);
}

constexpr char kBigQuery[] = R"(
  for graph Q { node a <label="L0">; node b <label="L1">; edge (a, b); }
    exhaustive in doc("big")
    return graph R { node n; };
)";

TEST(EvaluatorAutoIndexTest, SecondEvaluatorReusesTheSharedIndex) {
  // The index lives on the graph's snapshot, not in an evaluator: a second
  // evaluator over the same registry finds it built.
  DocumentRegistry docs;
  docs.RegisterGraph("big", BigGraph(77));
  Evaluator first(&docs);
  auto r1 = first.RunSource(kBigQuery);
  ASSERT_TRUE(r1.ok()) << r1.status();
  EXPECT_EQ(first.indexes_built(), 1u);
  EXPECT_EQ(first.metrics()->GetCounter("exec.index.builds")->Value(), 1u);

  Evaluator second(&docs);
  auto r2 = second.RunSource(kBigQuery);
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(second.indexes_built(), 0u);
  EXPECT_EQ(second.metrics()->GetCounter("exec.index.builds")->Value(), 0u);
  EXPECT_EQ(second.metrics()->GetCounter("exec.index.cache_hits")->Value(),
            1u);
  EXPECT_EQ(r1->returned.size(), r2->returned.size());
  EXPECT_GT(r1->returned.size(), 0u);
}

TEST(EvaluatorAutoIndexTest, IndexIsFreedWithItsDocument) {
  DocumentRegistry docs;
  docs.RegisterGraph("big", BigGraph(78));
  Evaluator ev(&docs);
  ASSERT_TRUE(ev.RunSource(kBigQuery).ok());
  ASSERT_EQ(ev.indexes_built(), 1u);

  // A reader's pin on the document, and a weak handle on its index.
  std::shared_ptr<const GraphCollection> pin = docs.FindShared("big");
  std::weak_ptr<const match::LabelIndex> weak;
  {
    bool built = true;
    std::shared_ptr<const match::LabelIndex> index =
        match::LabelIndex::Shared((*pin)[0], /*with_neighborhoods=*/false,
                                  &built);
    EXPECT_FALSE(built) << "the evaluator's index was not shared";
    weak = index;
  }
  EXPECT_FALSE(weak.expired()) << "the index must live as long as its graph";

  // Republished: the registry drops the old document, the pin keeps it.
  docs.RegisterGraph("big", BigGraph(79));
  EXPECT_FALSE(weak.expired());
  pin.reset();
  EXPECT_TRUE(weak.expired()) << "the index outlived its document";

  // The new document gets its own index.
  ASSERT_TRUE(ev.RunSource(kBigQuery).ok());
  EXPECT_EQ(ev.indexes_built(), 2u);
}

TEST(EvaluatorDblpWorkloadTest, GeneratedCollectionWorks) {
  Rng rng(5);
  workload::DblpOptions opts;
  opts.num_papers = 20;
  opts.num_authors = 10;
  GraphCollection dblp = workload::MakeDblpCollection(opts, &rng);
  DocumentRegistry docs;
  docs.Register("DBLP", std::move(dblp));
  Evaluator ev(&docs);
  auto result = ev.RunSource(R"(
    graph P { node v1 <author>; node v2 <author>; };
    C := graph {};
    for P exhaustive in doc("DBLP") let C := graph {
      graph C;
      node P.v1, P.v2;
      edge e1 (P.v1, P.v2);
      unify P.v1, C.v1 where P.v1.name == C.v1.name;
      unify P.v2, C.v2 where P.v2.name == C.v2.name;
    };
  )");
  ASSERT_TRUE(result.ok()) << result.status();
  const Graph* c = ev.Variable("C");
  ASSERT_NE(c, nullptr);
  EXPECT_LE(c->NumNodes(), 10u);  // At most one node per author.
  // No duplicate author nodes.
  std::set<std::string> names;
  for (size_t v = 0; v < c->NumNodes(); ++v) {
    names.insert(
        c->node(static_cast<NodeId>(v)).attrs.GetOrNull("name").AsString());
  }
  EXPECT_EQ(names.size(), c->NumNodes());
}

TEST_F(EvaluatorTest, ProfilingFillsProfileFields) {
  Evaluator ev(&docs_);
  ev.set_profiling(true);
  auto result = ev.RunSource(R"(
    graph P {
      node v1 <author>;
      node v2 <author>;
    };
    for P exhaustive in doc("DBLP") return P;
  )");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->returned.size(), 0u);
  // The trace tree reaches from the program down to the pipeline stages.
  for (const char* span : {"\"program\"", "\"statement\"", "\"flwr\"",
                           "\"select\"", "\"match\"", "\"search\""}) {
    EXPECT_NE(result->profile_json.find(span), std::string::npos)
        << "missing span " << span << " in " << result->profile_json;
  }
  EXPECT_NE(result->profile_json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(result->profile_json.find("match.queries"), std::string::npos);
  EXPECT_NE(result->profile_text.find("program"), std::string::npos);
  EXPECT_NE(result->profile_text.find("match.search.steps"),
            std::string::npos);

  // Without profiling the fields stay empty and metrics still accumulate.
  ev.set_profiling(false);
  auto plain = ev.RunSource(R"(for P exhaustive in doc("DBLP") return P;)");
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_TRUE(plain->profile_json.empty());
  EXPECT_TRUE(plain->profile_text.empty());
  EXPECT_GE(ev.metrics()->Snapshot().counters.at("match.queries"), 2u);
}

TEST_F(EvaluatorTest, ExplainDescribesPlanWithoutExecuting) {
  Evaluator ev(&docs_);
  auto plan = ev.ExplainSource(R"(
    graph P {
      node v1 <author>;
      node v2 <author>;
    };
    for P in doc("DBLP") where booktitle == "SIGMOD" return P;
  )");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->find("graph-decl 'P'"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("for P in doc(\"DBLP\")"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("where-pushdown"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("3 member graphs"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("pipeline: retrieve=profile"), std::string::npos)
      << *plan;
  // EXPLAIN ran nothing and registered nothing.
  EXPECT_EQ(ev.metrics()->Snapshot().counters.count("match.queries"), 0u);
  auto reuse = ev.ExplainSource(R"(
    graph P { node v1 <author>; };
    for P in doc("DBLP") return P;
  )");
  EXPECT_TRUE(reuse.ok()) << reuse.status();  // P was not leaked into state.
}

TEST_F(EvaluatorTest, ExplainReportsMissingDoc) {
  Evaluator ev(&docs_);
  auto plan = ev.ExplainSource(R"(
    graph P { node v1 <author>; };
    for P in doc("NOPE") return P;
  )");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->find("NOT REGISTERED"), std::string::npos) << *plan;
}

}  // namespace
}  // namespace graphql::exec
