#include "reach/reachability.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "reach/scc.h"

namespace graphql::reach {
namespace {

Graph Chain(size_t n) {
  Graph g("chain", /*directed=*/true);
  for (size_t i = 0; i < n; ++i) g.AddNode();
  for (size_t i = 1; i < n; ++i) {
    g.AddEdge(static_cast<NodeId>(i - 1), static_cast<NodeId>(i));
  }
  return g;
}

TEST(SccTest, ChainIsAllSingletons) {
  Graph g = Chain(5);
  SccResult scc = ComputeScc(g);
  EXPECT_EQ(scc.num_components, 5);
  // Reverse topological numbering: earlier nodes get larger ids.
  for (size_t v = 1; v < 5; ++v) {
    EXPECT_GT(scc.component[v - 1], scc.component[v]);
  }
}

TEST(SccTest, CycleIsOneComponent) {
  Graph g("cycle", /*directed=*/true);
  for (int i = 0; i < 4; ++i) g.AddNode();
  for (int i = 0; i < 4; ++i) g.AddEdge(i, (i + 1) % 4);
  SccResult scc = ComputeScc(g);
  EXPECT_EQ(scc.num_components, 1);
}

TEST(SccTest, TwoCyclesWithBridge) {
  // Cycle {0,1} -> bridge -> cycle {2,3}.
  Graph g("g", /*directed=*/true);
  for (int i = 0; i < 4; ++i) g.AddNode();
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 2);
  SccResult scc = ComputeScc(g);
  EXPECT_EQ(scc.num_components, 2);
  EXPECT_EQ(scc.component[0], scc.component[1]);
  EXPECT_EQ(scc.component[2], scc.component[3]);
  // Edge from {0,1} to {2,3}: source component id is larger.
  EXPECT_GT(scc.component[0], scc.component[2]);
}

TEST(SccTest, UndirectedConnectedComponentIsOneScc) {
  Graph g;  // Undirected.
  g.AddNode();
  g.AddNode();
  g.AddNode();
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddNode();  // Isolated.
  SccResult scc = ComputeScc(g);
  EXPECT_EQ(scc.num_components, 2);
}

TEST(SccTest, MembersPartitionNodes) {
  Rng rng(17);
  Graph g("r", /*directed=*/true);
  for (int i = 0; i < 50; ++i) g.AddNode();
  for (int i = 0; i < 120; ++i) {
    g.AddEdge(static_cast<NodeId>(rng.NextBounded(50)),
              static_cast<NodeId>(rng.NextBounded(50)));
  }
  SccResult scc = ComputeScc(g);
  auto members = scc.Members();
  size_t total = 0;
  for (const auto& m : members) total += m.size();
  EXPECT_EQ(total, 50u);
}

TEST(ReachabilityTest, ChainReachability) {
  Graph g = Chain(6);
  auto index = ReachabilityIndex::Build(g);
  ASSERT_TRUE(index.ok()) << index.status();
  EXPECT_TRUE(index->Reachable(0, 5));
  EXPECT_TRUE(index->Reachable(2, 4));
  EXPECT_TRUE(index->Reachable(3, 3));  // Trivially (empty path).
  EXPECT_FALSE(index->Reachable(5, 0));
  EXPECT_FALSE(index->Reachable(4, 2));
}

TEST(ReachabilityTest, CycleReachesItself) {
  Graph g("cycle", /*directed=*/true);
  for (int i = 0; i < 3; ++i) g.AddNode();
  for (int i = 0; i < 3; ++i) g.AddEdge(i, (i + 1) % 3);
  auto index = ReachabilityIndex::Build(g);
  ASSERT_TRUE(index.ok());
  for (int u = 0; u < 3; ++u) {
    for (int v = 0; v < 3; ++v) {
      EXPECT_TRUE(index->Reachable(u, v));
    }
  }
}

TEST(ReachabilityTest, DiamondDag) {
  //    0
  //   / \    edges point down: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
  //  1   2
  //   \ /
  //    3    4 (isolated)
  Graph g("d", /*directed=*/true);
  for (int i = 0; i < 5; ++i) g.AddNode();
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 3);
  g.AddEdge(2, 3);
  auto index = ReachabilityIndex::Build(g);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(index->Reachable(0, 3));
  EXPECT_FALSE(index->Reachable(1, 2));
  EXPECT_FALSE(index->Reachable(3, 0));
  EXPECT_FALSE(index->Reachable(0, 4));
  EXPECT_FALSE(index->Reachable(4, 0));
}

TEST(ReachabilityTest, BudgetRefusal) {
  Graph g = Chain(100);  // 100 singleton components.
  ReachabilityIndex::Options options;
  options.max_bitset_bytes = 16;
  auto index = ReachabilityIndex::Build(g, options);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kLimitExceeded);
  // The fallback still answers.
  EXPECT_TRUE(BfsReachable(g, 0, 99));
  EXPECT_FALSE(BfsReachable(g, 99, 0));
}

/// Property: the index agrees with BFS on random directed graphs (which
/// contain plenty of nontrivial SCCs at this density).
class ReachabilityPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ReachabilityPropertyTest, AgreesWithBfs) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 92821 + 19);
  Graph g("r", /*directed=*/true);
  size_t n = 40;
  for (size_t i = 0; i < n; ++i) g.AddNode();
  size_t m = 60 + rng.NextBounded(60);
  for (size_t i = 0; i < m; ++i) {
    g.AddEdge(static_cast<NodeId>(rng.NextBounded(n)),
              static_cast<NodeId>(rng.NextBounded(n)));
  }
  auto index = ReachabilityIndex::Build(g);
  ASSERT_TRUE(index.ok()) << index.status();
  for (size_t u = 0; u < n; ++u) {
    for (size_t v = 0; v < n; ++v) {
      EXPECT_EQ(index->Reachable(static_cast<NodeId>(u),
                                 static_cast<NodeId>(v)),
                BfsReachable(g, static_cast<NodeId>(u),
                             static_cast<NodeId>(v)))
          << u << " -> " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReachabilityPropertyTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace graphql::reach
