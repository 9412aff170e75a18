#include "rel/sql_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "match/matcher.h"
#include "match_oracle.h"
#include "motif/deriver.h"
#include "workload/erdos_renyi.h"
#include "workload/queries.h"

namespace graphql::rel {
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

TEST(SqlGraphDatabaseTest, TablesLoaded) {
  Graph g = Sample();
  SqlGraphDatabase db = SqlGraphDatabase::FromGraph(g);
  EXPECT_EQ(db.v_table().NumRows(), 6u);
  // Undirected edges stored in both orientations.
  EXPECT_EQ(db.e_table().NumRows(), 14u);
}

TEST(SqlGraphDatabaseTest, TriangleQueryMatchesFigure41) {
  Graph g = Sample();
  SqlGraphDatabase db = SqlGraphDatabase::FromGraph(g);
  auto p = algebra::GraphPattern::Parse(R"(
    graph P {
      node u1 <label="A">; node u2 <label="B">; node u3 <label="C">;
      edge (u1, u2); edge (u2, u3); edge (u3, u1);
    })");
  ASSERT_TRUE(p.ok());
  auto rows = db.MatchPattern(*p);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], g.FindNode("a1"));
  EXPECT_EQ((*rows)[0][1], g.FindNode("b1"));
  EXPECT_EQ((*rows)[0][2], g.FindNode("c2"));
}

TEST(SqlGraphDatabaseTest, InjectivityEnforced) {
  // Pattern B - B must not map both nodes to the same B.
  Graph g = Sample();
  SqlGraphDatabase db = SqlGraphDatabase::FromGraph(g);
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u <label=\"B\">; node v <label=\"B\">; "
      "edge (u, v); }");
  ASSERT_TRUE(p.ok());
  auto rows = db.MatchPattern(*p);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);  // (b1,b2) and (b2,b1).
  for (const auto& r : *rows) EXPECT_NE(r[0], r[1]);
}

TEST(SqlGraphDatabaseTest, MaxResultsTruncates) {
  Graph g = Sample();
  SqlGraphDatabase db = SqlGraphDatabase::FromGraph(g);
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u; node v; edge (u, v); }");
  ASSERT_TRUE(p.ok());
  SqlGraphDatabase::QueryStats stats;
  auto rows = db.MatchPattern(*p, 3, &stats);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
  EXPECT_TRUE(stats.truncated);
  EXPECT_GT(stats.exec.index_probes, 0u);
}

TEST(SqlGraphDatabaseTest, WildcardFirstNodeUsesSeqScan) {
  Graph g = Sample();
  SqlGraphDatabase db = SqlGraphDatabase::FromGraph(g);
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u; node v <label=\"C\">; edge (u, v); }");
  ASSERT_TRUE(p.ok());
  auto rows = db.MatchPattern(*p);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 4u);
}

TEST(SqlGraphDatabaseTest, DisconnectedPatternUnsupported) {
  Graph g = Sample();
  SqlGraphDatabase db = SqlGraphDatabase::FromGraph(g);
  auto p = algebra::GraphPattern::Parse("graph P { node u; node v; }");
  ASSERT_TRUE(p.ok());
  auto rows = db.MatchPattern(*p);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kUnsupported);
}

TEST(SqlGraphDatabaseTest, NonLabelConstraintsUnsupported) {
  Graph g = Sample();
  SqlGraphDatabase db = SqlGraphDatabase::FromGraph(g);
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u where age > 3; }");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(db.MatchPattern(*p).status().code(), StatusCode::kUnsupported);
  auto p2 = algebra::GraphPattern::Parse(
      "graph P { node u; node v; edge (u, v) <w=3>; }");
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(db.MatchPattern(*p2).status().code(), StatusCode::kUnsupported);
}

TEST(SqlGraphDatabaseTest, SelfLoopPattern) {
  Graph g;
  AttrTuple a;
  a.Set("label", Value("A"));
  NodeId x = g.AddNode("", a);
  g.AddNode("", a);
  g.AddEdge(x, x);
  SqlGraphDatabase db = SqlGraphDatabase::FromGraph(g);
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u <label=\"A\">; edge (u, u); }");
  ASSERT_TRUE(p.ok());
  auto rows = db.MatchPattern(*p);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], x);
}

TEST(SqlGraphDatabaseTest, DirectedGraphRespectsDirection) {
  Graph g("D", /*directed=*/true);
  AttrTuple la;
  la.Set("label", Value("A"));
  AttrTuple lb;
  lb.Set("label", Value("B"));
  NodeId a = g.AddNode("", la);
  NodeId b = g.AddNode("", lb);
  g.AddEdge(a, b);
  SqlGraphDatabase db = SqlGraphDatabase::FromGraph(g);
  EXPECT_EQ(db.e_table().NumRows(), 1u);  // Single orientation.

  Graph pf("P", /*directed=*/true);
  NodeId u = pf.AddNode("u", la);
  NodeId v = pf.AddNode("v", lb);
  pf.AddEdge(u, v);
  auto rows = db.MatchPattern(algebra::GraphPattern::FromGraph(pf));
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->size(), 1u);

  Graph pr("P", /*directed=*/true);
  u = pr.AddNode("u", la);
  v = pr.AddNode("v", lb);
  pr.AddEdge(v, u);
  auto rev = db.MatchPattern(algebra::GraphPattern::FromGraph(pr));
  ASSERT_TRUE(rev.ok()) << rev.status();
  EXPECT_TRUE(rev->empty());
}

/// Property: the SQL plan and the native matcher agree on random graphs
/// and random connected queries.
class SqlAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(SqlAgreementTest, AgreesWithNativeMatcher) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  workload::ErdosRenyiOptions opts;
  opts.num_nodes = 80;
  opts.num_edges = 240;
  opts.num_labels = 5;
  Graph g = workload::MakeErdosRenyi(opts, &rng);
  auto q = workload::ExtractConnectedQuery(g, 4, &rng);
  ASSERT_TRUE(q.ok()) << q.status();
  algebra::GraphPattern p = algebra::GraphPattern::FromGraph(*q);

  auto cand = match::oracle::ScanCandidates(p, g);
  auto native = match::SearchMatches(p, g, cand, match::DeclarationOrder(p));
  ASSERT_TRUE(native.ok());

  SqlGraphDatabase db = SqlGraphDatabase::FromGraph(g);
  auto sql = db.MatchPattern(p);
  ASSERT_TRUE(sql.ok()) << sql.status();

  // Same multiset of node mappings.
  std::set<std::vector<NodeId>> native_set;
  for (const auto& m : *native) {
    native_set.insert(m.node_mapping);
  }
  std::set<std::vector<NodeId>> sql_set(sql->begin(), sql->end());
  EXPECT_EQ(native_set, sql_set);
  EXPECT_EQ(native->size(), sql->size());
}

INSTANTIATE_TEST_SUITE_P(Sweep, SqlAgreementTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace graphql::rel
