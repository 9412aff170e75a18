#include "match/matcher.h"
#include "match_oracle.h"

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "lang/parser.h"
#include "motif/deriver.h"

namespace graphql::match {
namespace {

Graph Sample() {
  auto g = motif::GraphFromSource(R"(
    graph G {
      node a1 <label="A">; node a2 <label="A">;
      node b1 <label="B">; node b2 <label="B">;
      node c1 <label="C">; node c2 <label="C">;
      edge (a1, b1); edge (a1, c2); edge (b1, c2);
      edge (b1, b2); edge (b2, c2); edge (b2, a2); edge (c1, b1);
    })");
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

Result<std::vector<algebra::MatchedGraph>> RunBasic(
    const algebra::GraphPattern& p, const Graph& g,
    MatchOptions options = {}) {
  auto cand = oracle::ScanCandidates(p, g);
  return SearchMatches(p, g, cand, DeclarationOrder(p), options);
}

TEST(MatcherTest, TriangleHasExactlyOneMatch) {
  Graph g = Sample();
  auto p = algebra::GraphPattern::Parse(R"(
    graph P {
      node u1 <label="A">; node u2 <label="B">; node u3 <label="C">;
      edge (u1, u2); edge (u2, u3); edge (u3, u1);
    })");
  ASSERT_TRUE(p.ok());
  auto matches = RunBasic(*p, g);
  ASSERT_TRUE(matches.ok()) << matches.status();
  ASSERT_EQ(matches->size(), 1u);
  const algebra::MatchedGraph& m = (*matches)[0];
  EXPECT_EQ(m.node_mapping[0], g.FindNode("a1"));
  EXPECT_EQ(m.node_mapping[1], g.FindNode("b1"));
  EXPECT_EQ(m.node_mapping[2], g.FindNode("c2"));
  EXPECT_TRUE(m.Verify());
  // Edge mapping resolved to actual data edges.
  for (EdgeId e : m.edge_mapping) EXPECT_NE(e, kInvalidEdge);
}

TEST(MatcherTest, MappingIsInjective) {
  // Two wildcard nodes joined by an edge: matches must never map both
  // pattern nodes to the same data node.
  Graph g = Sample();
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u; node v; edge (u, v); }");
  ASSERT_TRUE(p.ok());
  auto matches = RunBasic(*p, g);
  ASSERT_TRUE(matches.ok());
  // 7 undirected edges, each matched in both directions.
  EXPECT_EQ(matches->size(), 14u);
  for (const auto& m : *matches) {
    EXPECT_NE(m.node_mapping[0], m.node_mapping[1]);
  }
}

TEST(MatcherTest, NonExhaustiveStopsAtFirst) {
  Graph g = Sample();
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u; node v; edge (u, v); }");
  ASSERT_TRUE(p.ok());
  MatchOptions options;
  options.exhaustive = false;
  auto matches = RunBasic(*p, g, options);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->size(), 1u);
}

TEST(MatcherTest, MaxMatchesTruncates) {
  Graph g = Sample();
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u; node v; edge (u, v); }");
  ASSERT_TRUE(p.ok());
  MatchOptions options;
  options.max_matches = 5;
  SearchStats stats;
  auto cand = oracle::ScanCandidates(*p, g);
  auto matches =
      SearchMatches(*p, g, cand, DeclarationOrder(*p), options, &stats);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->size(), 5u);
  EXPECT_TRUE(stats.truncated);
}

TEST(MatcherTest, StepBudgetStopsSearch) {
  Graph g = Sample();
  auto p = algebra::GraphPattern::Parse("graph P { node u; node v; }");
  ASSERT_TRUE(p.ok());
  ResourceGovernor gov(GovernorLimits{.max_steps = 3});
  MatchOptions options;
  options.governor = &gov;
  SearchStats stats;
  auto cand = oracle::ScanCandidates(*p, g);
  auto matches =
      SearchMatches(*p, g, cand, DeclarationOrder(*p), options, &stats);
  ASSERT_TRUE(matches.ok());
  EXPECT_TRUE(stats.governor_tripped);
  EXPECT_EQ(gov.trip_kind(), TripKind::kSteps);
  // Three tries pass; the fourth trips the budget.
  EXPECT_EQ(stats.steps, 4u);
  EXPECT_EQ(gov.steps_used(), 4u);
}

TEST(MatcherTest, DisconnectedPatternIsCrossProduct) {
  Graph g = Sample();
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u <label=\"A\">; node v <label=\"C\">; }");
  ASSERT_TRUE(p.ok());
  auto matches = RunBasic(*p, g);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->size(), 4u);  // 2 As x 2 Cs.
}

TEST(MatcherTest, EmptyCandidateSetMeansNoMatch) {
  Graph g = Sample();
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u <label=\"Z\">; }");
  ASSERT_TRUE(p.ok());
  auto matches = RunBasic(*p, g);
  ASSERT_TRUE(matches.ok());
  EXPECT_TRUE(matches->empty());
}

TEST(MatcherTest, GlobalPredicateFiltersAtEnd) {
  Graph g = Sample();
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u; node v; edge (u, v); } "
      "where u.label == v.label");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->has_global_pred());
  auto matches = RunBasic(*p, g);
  ASSERT_TRUE(matches.ok());
  // Only the B1-B2 edge connects equal labels (both directions).
  EXPECT_EQ(matches->size(), 2u);
  for (const auto& m : *matches) {
    EXPECT_EQ(g.Label(m.node_mapping[0]), g.Label(m.node_mapping[1]));
  }
}

TEST(MatcherTest, SelfLoopPattern) {
  Graph g;
  AttrTuple a;
  a.Set("label", Value("A"));
  NodeId x = g.AddNode("x", a);
  NodeId y = g.AddNode("y", a);
  g.AddEdge(x, x);
  g.AddEdge(x, y);
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u <label=\"A\">; edge (u, u); }");
  ASSERT_TRUE(p.ok());
  auto matches = RunBasic(*p, g);
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 1u);
  EXPECT_EQ((*matches)[0].node_mapping[0], x);
}

TEST(MatcherTest, DirectedEdgesRespectDirection) {
  Graph g("D", /*directed=*/true);
  NodeId a = g.AddNode("a");
  g.SetLabel(a, "A");
  NodeId b = g.AddNode("b");
  g.SetLabel(b, "B");
  g.AddEdge(a, b);

  auto decl_fwd = lang::Parser::ParseGraph(
      "graph P { node u <label=\"A\">; node v <label=\"B\">; edge (u, v); }");
  ASSERT_TRUE(decl_fwd.ok());
  // Build a directed pattern graph manually (parser motifs default to
  // undirected; FromGraph preserves directedness).
  Graph pf("P", /*directed=*/true);
  AttrTuple la;
  la.Set("label", Value("A"));
  AttrTuple lb;
  lb.Set("label", Value("B"));
  NodeId u = pf.AddNode("u", la);
  NodeId v = pf.AddNode("v", lb);
  pf.AddEdge(u, v);
  algebra::GraphPattern fwd = algebra::GraphPattern::FromGraph(pf);
  auto m_fwd = RunBasic(fwd, g);
  ASSERT_TRUE(m_fwd.ok());
  EXPECT_EQ(m_fwd->size(), 1u);

  Graph pr("P", /*directed=*/true);
  u = pr.AddNode("u", la);
  v = pr.AddNode("v", lb);
  pr.AddEdge(v, u);  // Reversed: B -> A does not exist in the data.
  algebra::GraphPattern rev = algebra::GraphPattern::FromGraph(pr);
  auto m_rev = RunBasic(rev, g);
  ASSERT_TRUE(m_rev.ok());
  EXPECT_TRUE(m_rev->empty());
}

TEST(MatcherTest, ParallelEdgeWithPredicatesPicksCompatibleOne) {
  Graph g;
  NodeId x = g.AddNode("x");
  NodeId y = g.AddNode("y");
  AttrTuple w1;
  w1.Set("w", Value(int64_t{1}));
  AttrTuple w9;
  w9.Set("w", Value(int64_t{9}));
  g.AddEdge(x, y, "", w1);
  g.AddEdge(x, y, "", w9);
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u; node v; edge e (u, v) where w > 5; }");
  ASSERT_TRUE(p.ok());
  auto matches = RunBasic(*p, g);
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 2u);  // Both orientations.
  for (const auto& m : *matches) {
    ASSERT_EQ(m.edge_mapping.size(), 1u);
    EXPECT_EQ(g.edge(m.edge_mapping[0]).attrs.GetOrNull("w"),
              Value(int64_t{9}));
  }
}

TEST(MatcherTest, EmptyPatternYieldsNothing) {
  Graph g = Sample();
  auto p = algebra::GraphPattern::Parse("graph P { }");
  ASSERT_TRUE(p.ok());
  auto matches = RunBasic(*p, g);
  ASSERT_TRUE(matches.ok());
  EXPECT_TRUE(matches->empty());
  // A residual conjunct naming no node has no order position to run at,
  // and the search reaches no embedding where it would fail.
  ThreadPool pool(1);
  for (const char* source : {"graph P { } where 1 < 2",
                             "graph P { } where 1 / 0 > 0"}) {
    auto q = algebra::GraphPattern::Parse(source);
    ASSERT_TRUE(q.ok()) << q.status();
    ASSERT_TRUE(q->has_global_pred()) << source;
    auto cand = oracle::ScanCandidates(*q, g);
    for (int threads : {0, 2}) {
      auto r = SearchMatches(*q, g, cand, DeclarationOrder(*q), {}, nullptr,
                             threads, &pool);
      ASSERT_TRUE(r.ok()) << r.status() << " " << source;
      EXPECT_TRUE(r->empty()) << source;
    }
  }
}

TEST(MatcherTest, BadOrderIsRejected) {
  Graph g = Sample();
  auto p = algebra::GraphPattern::Parse("graph P { node u; node v; }");
  ASSERT_TRUE(p.ok());
  auto cand = oracle::ScanCandidates(*p, g);
  auto r = SearchMatches(*p, g, cand, {0});  // Too short.
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace graphql::match
