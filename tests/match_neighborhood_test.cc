#include "match/neighborhood.h"

#include <gtest/gtest.h>

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

Graph TrianglePattern() {
  auto g = motif::GraphFromSource(R"(
    graph P {
      node u1 <label="A">; node u2 <label="B">; node u3 <label="C">;
      edge (u1, u2); edge (u2, u3); edge (u3, u1);
    })");
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

TEST(NeighborhoodTest, RadiusZeroIsSingleton) {
  Graph g = Sample();
  NeighborhoodSubgraph n = ExtractNeighborhood(g, g.FindNode("b1"), 0);
  EXPECT_EQ(n.sub.NumNodes(), 1u);
  EXPECT_EQ(n.sub.NumEdges(), 0u);
  EXPECT_EQ(n.center, 0);
  EXPECT_EQ(n.sub.Label(0), "B");
}

TEST(NeighborhoodTest, RadiusOneShape) {
  Graph g = Sample();
  // b1's radius-1 neighborhood: {b1, a1, c2, b2, c1} and edges among them:
  // b1-a1, b1-c2, b1-b2, b1-c1, a1-c2, b2-c2 -> 5 nodes, 6 edges.
  NeighborhoodSubgraph n = ExtractNeighborhood(g, g.FindNode("b1"), 1);
  EXPECT_EQ(n.sub.NumNodes(), 5u);
  EXPECT_EQ(n.sub.NumEdges(), 6u);
}

TEST(NeighborhoodTest, LeafNeighborhood) {
  Graph g = Sample();
  NeighborhoodSubgraph n = ExtractNeighborhood(g, g.FindNode("c1"), 1);
  EXPECT_EQ(n.sub.NumNodes(), 2u);
  EXPECT_EQ(n.sub.NumEdges(), 1u);
}

TEST(NeighborhoodTest, ScratchRestored) {
  Graph g = Sample();
  std::vector<NodeId> scratch(g.NumNodes(), kInvalidNode);
  ExtractNeighborhood(g, 0, 2, &scratch);
  for (NodeId v : scratch) EXPECT_EQ(v, kInvalidNode);
}

TEST(NeighborhoodSubIsoTest, PrunesPerFigure417) {
  // Figure 4.17 "retrieve by neighborhood subgraphs": for the A-B-C
  // triangle pattern, only A1, B1, C2 survive.
  Graph g = Sample();
  Graph p = TrianglePattern();
  auto survives = [&](const char* pattern_node, const char* data_node) {
    NeighborhoodSubgraph pn =
        ExtractNeighborhood(p, p.FindNode(pattern_node), 1);
    NeighborhoodSubgraph dn =
        ExtractNeighborhood(g, g.FindNode(data_node), 1);
    return NeighborhoodSubIsomorphic(pn, dn);
  };
  EXPECT_TRUE(survives("u1", "a1"));
  EXPECT_FALSE(survives("u1", "a2"));
  EXPECT_TRUE(survives("u2", "b1"));
  EXPECT_FALSE(survives("u2", "b2"));
  EXPECT_FALSE(survives("u3", "c1"));
  EXPECT_TRUE(survives("u3", "c2"));
}

TEST(NeighborhoodSubIsoTest, CenterLabelsMustAgree) {
  Graph g = Sample();
  NeighborhoodSubgraph a = ExtractNeighborhood(g, g.FindNode("a1"), 1);
  NeighborhoodSubgraph b = ExtractNeighborhood(g, g.FindNode("b1"), 1);
  EXPECT_FALSE(NeighborhoodSubIsomorphic(a, b));
}

TEST(NeighborhoodSubIsoTest, WildcardCenterMatches) {
  Graph g = Sample();
  Graph p;
  p.AddNode("u");  // No label: wildcard.
  NeighborhoodSubgraph pn = ExtractNeighborhood(p, 0, 1);
  NeighborhoodSubgraph dn = ExtractNeighborhood(g, g.FindNode("a1"), 1);
  EXPECT_TRUE(NeighborhoodSubIsomorphic(pn, dn));
}

TEST(NeighborhoodSubIsoTest, SizeFastPath) {
  Graph g = Sample();
  NeighborhoodSubgraph small = ExtractNeighborhood(g, g.FindNode("c1"), 1);
  NeighborhoodSubgraph big = ExtractNeighborhood(g, g.FindNode("b1"), 1);
  // A bigger query neighborhood cannot embed in a smaller one.
  EXPECT_FALSE(NeighborhoodSubIsomorphic(big, small));
}

TEST(NeighborhoodSubIsoTest, IdenticalNeighborhoodsMatch) {
  Graph g = Sample();
  for (const char* n : {"a1", "b1", "c2", "b2"}) {
    NeighborhoodSubgraph nb = ExtractNeighborhood(g, g.FindNode(n), 1);
    EXPECT_TRUE(NeighborhoodSubIsomorphic(nb, nb)) << n;
  }
}

TEST(NeighborhoodSubIsoTest, BudgetExhaustionIsConservative) {
  // u2 does not embed at b2 (Figure 4.17), but when the governor's step
  // budget runs out mid-test the test gives up and keeps b2 (no pruning).
  Graph g = Sample();
  Graph p = TrianglePattern();
  NeighborhoodSubgraph pn = ExtractNeighborhood(p, p.FindNode("u2"), 1);
  NeighborhoodSubgraph dn = ExtractNeighborhood(g, g.FindNode("b2"), 1);
  ASSERT_FALSE(NeighborhoodSubIsomorphic(pn, dn));
  ResourceGovernor gov(GovernorLimits{.max_steps = 1});
  EXPECT_TRUE(NeighborhoodSubIsomorphic(pn, dn, &gov));
  EXPECT_TRUE(gov.tripped());
  EXPECT_EQ(gov.trip_point(), GovernPoint::kNeighborhood);
}

TEST(NeighborhoodTest, DirectedNeighborhoodUsesBothDirections) {
  Graph g("D", /*directed=*/true);
  NodeId a = g.AddNode("a");
  NodeId b = g.AddNode("b");
  NodeId c = g.AddNode("c");
  g.AddEdge(a, b);
  g.AddEdge(c, a);  // Incoming to a.
  NeighborhoodSubgraph n = ExtractNeighborhood(g, a, 1);
  EXPECT_EQ(n.sub.NumNodes(), 3u);  // Both out- and in-neighbors included.
  EXPECT_EQ(n.sub.NumEdges(), 2u);
}

}  // namespace
}  // namespace graphql::match
