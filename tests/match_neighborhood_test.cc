#include "match/neighborhood.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "match/label_index.h"
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

/// A radius-1 index over g: its neighborhoods stay valid with it, so a
/// test can hold several at once.
LabelIndex Index(const Graph& g) { return LabelIndex::Build(g); }

TEST(NeighborhoodTest, RadiusZeroIsSingleton) {
  Graph g = Sample();
  std::shared_ptr<const GraphSnapshot> snap = g.snapshot();
  NeighborhoodWalker walker(*snap);
  const NodeId b1 = g.FindNode("b1");
  NeighborhoodSubgraph n = ExtractNeighborhood(&walker, b1, 0);
  ASSERT_EQ(n.members.size(), 1u);
  EXPECT_EQ(n.num_edges, 0u);
  EXPECT_EQ(n.members[0], b1);
  EXPECT_EQ(SymbolTable::Global().Name(snap->node_label_sym(n.members[0])),
            "B");
}

TEST(NeighborhoodTest, RadiusOneShape) {
  Graph g = Sample();
  std::shared_ptr<const GraphSnapshot> snap = g.snapshot();
  NeighborhoodWalker walker(*snap);
  // b1's radius-1 neighborhood: {b1, a1, c2, b2, c1} and edges among them:
  // b1-a1, b1-c2, b1-b2, b1-c1, a1-c2, b2-c2 -> 5 nodes, 6 edges. The
  // center comes first, then its neighbors in CSR (ascending id) order.
  NeighborhoodSubgraph n = ExtractNeighborhood(&walker, g.FindNode("b1"), 1);
  EXPECT_EQ(n.members.size(), 5u);
  EXPECT_EQ(n.num_edges, 6u);
  EXPECT_EQ(std::vector<NodeId>(n.members.begin(), n.members.end()),
            (std::vector<NodeId>{g.FindNode("b1"), g.FindNode("a1"),
                                 g.FindNode("b2"), g.FindNode("c1"),
                                 g.FindNode("c2")}));
}

TEST(NeighborhoodTest, LeafNeighborhood) {
  Graph g = Sample();
  std::shared_ptr<const GraphSnapshot> snap = g.snapshot();
  NeighborhoodWalker walker(*snap);
  NeighborhoodSubgraph n = ExtractNeighborhood(&walker, g.FindNode("c1"), 1);
  EXPECT_EQ(n.members.size(), 2u);
  EXPECT_EQ(n.num_edges, 1u);
}

TEST(NeighborhoodTest, ScratchRestored) {
  // One walker serves every node of a graph: the marks of a wide walk must
  // not leak into the next one.
  Graph g = Sample();
  std::shared_ptr<const GraphSnapshot> snap = g.snapshot();
  NeighborhoodWalker walker(*snap);
  ExtractNeighborhood(&walker, 0, 2);
  for (size_t v = 0; v < g.NumNodes(); ++v) {
    NeighborhoodWalker fresh(*snap);
    NeighborhoodSubgraph want =
        ExtractNeighborhood(&fresh, static_cast<NodeId>(v), 1);
    NeighborhoodSubgraph got =
        ExtractNeighborhood(&walker, static_cast<NodeId>(v), 1);
    EXPECT_EQ(std::vector<NodeId>(got.members.begin(), got.members.end()),
              std::vector<NodeId>(want.members.begin(), want.members.end()))
        << "node " << v;
    EXPECT_EQ(got.num_edges, want.num_edges) << "node " << v;
  }
}

TEST(NeighborhoodSubIsoTest, PrunesPerFigure417) {
  // Figure 4.17 "retrieve by neighborhood subgraphs": for the A-B-C
  // triangle pattern, only A1, B1, C2 survive.
  Graph g = Sample();
  Graph p = TrianglePattern();
  LabelIndex gi = Index(g);
  LabelIndex pi = Index(p);
  auto survives = [&](const char* pattern_node, const char* data_node) {
    return NeighborhoodSubIsomorphic(pi.neighborhood(p.FindNode(pattern_node)),
                                     gi.neighborhood(g.FindNode(data_node)));
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
  LabelIndex gi = Index(g);
  EXPECT_FALSE(NeighborhoodSubIsomorphic(gi.neighborhood(g.FindNode("a1")),
                                         gi.neighborhood(g.FindNode("b1"))));
}

TEST(NeighborhoodSubIsoTest, WildcardCenterMatches) {
  Graph g = Sample();
  Graph p;
  p.AddNode("u");  // No label: wildcard.
  LabelIndex gi = Index(g);
  LabelIndex pi = Index(p);
  EXPECT_TRUE(NeighborhoodSubIsomorphic(pi.neighborhood(0),
                                        gi.neighborhood(g.FindNode("a1"))));
}

TEST(NeighborhoodSubIsoTest, SizeFastPath) {
  Graph g = Sample();
  LabelIndex gi = Index(g);
  NeighborhoodSubgraph small = gi.neighborhood(g.FindNode("c1"));
  NeighborhoodSubgraph big = gi.neighborhood(g.FindNode("b1"));
  // A bigger query neighborhood cannot embed in a smaller one, and the
  // size check decides before any step is counted.
  NeighborhoodStats stats;
  EXPECT_FALSE(NeighborhoodSubIsomorphic(big, small, nullptr, &stats));
  EXPECT_EQ(stats.tests, 1u);
  EXPECT_EQ(stats.steps, 0u);
}

TEST(NeighborhoodSubIsoTest, IdenticalNeighborhoodsMatch) {
  Graph g = Sample();
  LabelIndex gi = Index(g);
  for (const char* n : {"a1", "b1", "c2", "b2"}) {
    NeighborhoodSubgraph nb = gi.neighborhood(g.FindNode(n));
    EXPECT_TRUE(NeighborhoodSubIsomorphic(nb, nb)) << n;
  }
}

TEST(NeighborhoodSubIsoTest, BudgetExhaustionIsConservative) {
  // u2 does not embed at b2 (Figure 4.17), but when the governor's step
  // budget runs out mid-test the test gives up and keeps b2 (no pruning).
  Graph g = Sample();
  Graph p = TrianglePattern();
  LabelIndex gi = Index(g);
  LabelIndex pi = Index(p);
  NeighborhoodSubgraph pn = pi.neighborhood(p.FindNode("u2"));
  NeighborhoodSubgraph dn = gi.neighborhood(g.FindNode("b2"));
  ASSERT_FALSE(NeighborhoodSubIsomorphic(pn, dn));
  ResourceGovernor gov(GovernorLimits{.max_steps = 1});
  NeighborhoodStats stats;
  EXPECT_TRUE(NeighborhoodSubIsomorphic(pn, dn, &gov, &stats));
  EXPECT_TRUE(gov.tripped());
  EXPECT_EQ(gov.trip_point(), GovernPoint::kNeighborhood);
  EXPECT_EQ(stats.budget_hits, 1u);
}

TEST(NeighborhoodTest, DirectedNeighborhoodUsesBothDirections) {
  Graph g("D", /*directed=*/true);
  NodeId a = g.AddNode("a");
  NodeId b = g.AddNode("b");
  NodeId c = g.AddNode("c");
  g.AddEdge(a, b);
  g.AddEdge(c, a);  // Incoming to a.
  std::shared_ptr<const GraphSnapshot> snap = g.snapshot();
  NeighborhoodWalker walker(*snap);
  NeighborhoodSubgraph n = ExtractNeighborhood(&walker, a, 1);
  EXPECT_EQ(n.members.size(), 3u);  // Both out- and in-neighbors included.
  EXPECT_EQ(n.num_edges, 2u);
}

}  // namespace
}  // namespace graphql::match
