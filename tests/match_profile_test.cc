#include "match/profile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/symbols.h"
#include "graph/snapshot.h"
#include "match_oracle.h"
#include "motif/deriver.h"

namespace graphql::match {
namespace {

Graph Sample() {
  // Figure 4.16's database graph G: A1-B1, A1-C2, B1-C2, B1-B2, B2-C2,
  // B2-A2, C1-B1.
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

/// v's radius-r profile through a fresh walker over g's snapshot.
Profile ProfileOf(const Graph& g, NodeId v, int radius) {
  std::shared_ptr<const GraphSnapshot> snap = g.snapshot();
  NeighborhoodWalker walker(*snap);
  return BuildProfile(&walker, v, radius);
}

std::string LabelsOf(const Profile& p) {
  std::string s;
  for (SymbolId id : p) s += SymbolTable::Global().Name(id);
  return s;
}

TEST(SymbolTableTest, InternAndLookup) {
  SymbolTable& table = SymbolTable::Global();
  SymbolId a = table.Intern("A");
  SymbolId b = table.Intern("B");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.Intern("A"), a);
  EXPECT_EQ(table.Lookup("A"), a);
  EXPECT_EQ(table.Lookup("surely-never-interned-label"), kNoSymbol);
  EXPECT_EQ(table.Name(a), "A");
}

TEST(ProfileTest, RadiusZeroIsOwnLabel) {
  Graph g = Sample();
  Profile p = ProfileOf(g, g.FindNode("a1"), 0);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(SymbolTable::Global().Name(p[0]), "A");
}

TEST(ProfileTest, RadiusOneMatchesFigure417) {
  // Figure 4.17: profile(A1) = ABC, profile(B1) = ABBCC (paper lists ABCC
  // over its 4-neighbor variant; ours follows the Figure 4.16 edges).
  Graph g = Sample();
  auto labels_of = [&](const char* name) {
    return LabelsOf(ProfileOf(g, g.FindNode(name), 1));
  };
  EXPECT_EQ(labels_of("a1"), "ABC");
  EXPECT_EQ(labels_of("a2"), "AB");
  EXPECT_EQ(labels_of("c1"), "BC");
  EXPECT_EQ(labels_of("b2"), "ABBC");
}

TEST(ProfileTest, RadiusTwoGrows) {
  Graph g = Sample();
  Profile p1 = ProfileOf(g, g.FindNode("c1"), 1);
  Profile p2 = ProfileOf(g, g.FindNode("c1"), 2);
  EXPECT_GT(p2.size(), p1.size());
  EXPECT_TRUE(ProfileContains(p2, p1));
}

TEST(ProfileTest, UnlabeledNodesContributeNothing) {
  Graph g;
  NodeId a = g.AddNode("a");
  g.SetLabel(a, "A");
  NodeId b = g.AddNode("b");  // No label.
  g.AddEdge(a, b);
  Profile p = ProfileOf(g, a, 1);
  EXPECT_EQ(p.size(), 1u);
}

TEST(ProfileTest, ScratchIsRestored) {
  // One walker serves a whole graph: what an earlier walk marked must not
  // leak into the next, so every profile equals a fresh walker's.
  Graph g = Sample();
  std::shared_ptr<const GraphSnapshot> snap = g.snapshot();
  NeighborhoodWalker walker(*snap);
  BuildProfile(&walker, 0, 2);
  for (size_t v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(BuildProfile(&walker, static_cast<NodeId>(v), 1),
              ProfileOf(g, static_cast<NodeId>(v), 1))
        << "node " << v;
  }
}

TEST(ProfileTest, SnapshotOverloadMatchesGraphOverload) {
  // The walker over the snapshot's CSR and pre-interned symbols must
  // produce exactly the sorted symbol multiset of the adjacency-list walk
  // in match_oracle.h, at every radius.
  Graph g = Sample();
  std::shared_ptr<const GraphSnapshot> snap = g.snapshot();
  NeighborhoodWalker walker(*snap);
  for (int radius = 0; radius <= 3; ++radius) {
    for (size_t v = 0; v < g.NumNodes(); ++v) {
      Profile from_graph =
          oracle::BuildProfile(g, static_cast<NodeId>(v), radius);
      Profile from_snap = BuildProfile(&walker, static_cast<NodeId>(v), radius);
      EXPECT_EQ(from_graph, from_snap)
          << "radius " << radius << " node " << v;
    }
  }
}

TEST(ProfileContainsTest, BasicContainment) {
  EXPECT_TRUE(ProfileContains({1, 2, 2, 3}, {2, 3}));
  EXPECT_TRUE(ProfileContains({1, 2, 2, 3}, {}));
  EXPECT_TRUE(ProfileContains({1, 2, 2, 3}, {1, 2, 2, 3}));
}

TEST(ProfileContainsTest, MultiplicityMatters) {
  EXPECT_FALSE(ProfileContains({1, 2, 3}, {2, 2}));
  EXPECT_TRUE(ProfileContains({1, 2, 2, 3}, {2, 2}));
}

TEST(ProfileContainsTest, MissingElementFails) {
  EXPECT_FALSE(ProfileContains({1, 2, 3}, {4}));
  EXPECT_FALSE(ProfileContains({}, {1}));
}

TEST(ProfileContainsTest, UnknownLabelAlwaysFails) {
  EXPECT_FALSE(ProfileContains({1, 2, 3}, {kNoSymbol}));
}

TEST(ProfileContainsTest, SymbolsCollidingModulo64) {
  // 1, 65 and 129 share signature bit 1: the signatures cannot tell them
  // apart, so the merge decides.
  EXPECT_EQ(ProfileSignature(Profile{129}) & ~ProfileSignature(Profile{1, 65}),
            0u);
  EXPECT_FALSE(ProfileContains({1, 65}, {129}));
  EXPECT_FALSE(ProfileContains({1, 65}, {65, 65}));
  EXPECT_TRUE(ProfileContains({1, 65, 65}, {65, 65}));
  EXPECT_TRUE(ProfileContains({1, 64, 65, 128}, {1, 65, 128}));
  EXPECT_FALSE(ProfileContains({0, 1}, {64}));
  // A symbol whose bit the haystack lacks fails on the signature alone.
  EXPECT_NE(ProfileSignature(Profile{2}) & ~ProfileSignature(Profile{1, 65}),
            0u);
  EXPECT_FALSE(ProfileContains({1, 65}, {2}));
}

TEST(ProfileContainsTest, SoundForSubgraphs) {
  // Profile containment must hold whenever an actual embedding exists:
  // any radius-1 neighborhood of a node within a subgraph embeds in the
  // host's neighborhood of the image.
  Graph g = Sample();
  SymbolTable& table = SymbolTable::Global();
  // b1's pattern-side neighborhood in the triangle {a1,b1,c2} has labels
  // {A,B,C}; the full graph's profile of b1 must contain it.
  Profile sub = {table.Intern("A"), table.Intern("B"), table.Intern("C")};
  std::sort(sub.begin(), sub.end());
  Profile host = ProfileOf(g, g.FindNode("b1"), 1);
  EXPECT_TRUE(ProfileContains(host, sub));
}

}  // namespace
}  // namespace graphql::match
