#include "match/refine.h"

#include <gtest/gtest.h>

#include "match/matcher.h"
#include "match_oracle.h"
#include "motif/deriver.h"
#include "workload/erdos_renyi.h"
#include "workload/queries.h"

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

algebra::GraphPattern Triangle() {
  auto p = algebra::GraphPattern::Parse(R"(
    graph P {
      node u1 <label="A">; node u2 <label="B">; node u3 <label="C">;
      edge (u1, u2); edge (u2, u3); edge (u3, u1);
    })");
  EXPECT_TRUE(p.ok()) << p.status();
  return std::move(p).value();
}

TEST(RefineTest, Figure418LevelByLevel) {
  // Figure 4.18: input {A1,A2} x {B1,B2} x {C1,C2};
  // level 1 removes A2 and C1; level 2 removes B2.
  Graph g = Sample();
  algebra::GraphPattern p = Triangle();
  std::vector<std::vector<NodeId>> cand = oracle::ScanCandidates(p, g);
  ASSERT_EQ(cand[0].size(), 2u);
  ASSERT_EQ(cand[1].size(), 2u);
  ASSERT_EQ(cand[2].size(), 2u);

  std::vector<std::vector<NodeId>> level1 = cand;
  RefineSearchSpace(p, *g.snapshot(), 1, &level1);
  // Level 1 certainly removes the degree-1 nodes A2 and C1; B2's removal
  // may happen at level 1 or 2 depending on in-place processing order
  // (Algorithm 4.2 removes immediately, line 13).
  EXPECT_EQ(level1[0].size(), 1u);  // A2 gone.
  EXPECT_EQ(level1[2].size(), 1u);  // C1 gone.

  std::vector<std::vector<NodeId>> level2 = cand;
  RefineSearchSpace(p, *g.snapshot(), 2, &level2);
  EXPECT_EQ(level2[0].size(), 1u);
  EXPECT_EQ(level2[1].size(), 1u);  // B2 gone at level 2.
  EXPECT_EQ(level2[2].size(), 1u);
  EXPECT_EQ(level2[0][0], g.FindNode("a1"));
  EXPECT_EQ(level2[1][0], g.FindNode("b1"));
  EXPECT_EQ(level2[2][0], g.FindNode("c2"));
}

TEST(RefineTest, LevelZeroIsNoop) {
  Graph g = Sample();
  algebra::GraphPattern p = Triangle();
  std::vector<std::vector<NodeId>> cand = oracle::ScanCandidates(p, g);
  std::vector<std::vector<NodeId>> copy = cand;
  RefineSearchSpace(p, *g.snapshot(), 0, &copy);
  EXPECT_EQ(copy, cand);
}

TEST(RefineTest, MarkingAndNoMarkingAgree) {
  Graph g = Sample();
  algebra::GraphPattern p = Triangle();
  for (int level = 1; level <= 4; ++level) {
    std::vector<std::vector<NodeId>> with = oracle::ScanCandidates(p, g);
    std::vector<std::vector<NodeId>> without = with;
    RefineSearchSpace(p, *g.snapshot(), level, &with, nullptr,
                      /*use_marking=*/true);
    RefineSearchSpace(p, *g.snapshot(), level, &without, nullptr,
                      /*use_marking=*/false);
    EXPECT_EQ(with, without) << "level " << level;
  }
}

TEST(RefineTest, StatsPopulated) {
  Graph g = Sample();
  algebra::GraphPattern p = Triangle();
  std::vector<std::vector<NodeId>> cand = oracle::ScanCandidates(p, g);
  RefineStats stats;
  RefineSearchSpace(p, *g.snapshot(), 3, &cand, &stats);
  EXPECT_GT(stats.bipartite_checks, 0u);
  EXPECT_EQ(stats.removed, 3u);  // A2, C1, B2.
  EXPECT_GE(stats.levels_run, 2);
}

TEST(RefineTest, IsolatedPatternNodeSurvives) {
  Graph g = Sample();
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u <label=\"A\">; }");
  ASSERT_TRUE(p.ok());
  std::vector<std::vector<NodeId>> cand = oracle::ScanCandidates(*p, g);
  RefineSearchSpace(*p, *g.snapshot(), 3, &cand);
  EXPECT_EQ(cand[0].size(), 2u);  // No neighbors to demand: no pruning.
}

/// Soundness property: refinement never removes a candidate that appears
/// in a real match (TEST_P sweep over random graphs and query sizes).
class RefineSoundnessTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RefineSoundnessTest, NeverRemovesTrueCandidates) {
  auto [seed, qsize] = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 7919 + 17);
  workload::ErdosRenyiOptions opts;
  opts.num_nodes = 60;
  opts.num_edges = 180;
  opts.num_labels = 4;
  Graph g = workload::MakeErdosRenyi(opts, &rng);
  auto q = workload::ExtractConnectedQuery(g, static_cast<size_t>(qsize), &rng);
  ASSERT_TRUE(q.ok()) << q.status();
  algebra::GraphPattern p = algebra::GraphPattern::FromGraph(*q);

  std::vector<std::vector<NodeId>> cand = oracle::ScanCandidates(p, g);
  std::vector<std::vector<NodeId>> refined = cand;
  RefineSearchSpace(p, *g.snapshot(), qsize, &refined);

  // All matches found in the unrefined space must survive refinement.
  auto matches = SearchMatches(p, g, cand, DeclarationOrder(p));
  ASSERT_TRUE(matches.ok()) << matches.status();
  ASSERT_FALSE(matches->empty()) << "extracted query must match itself";
  std::vector<std::unordered_set<NodeId>> refined_sets(refined.size());
  for (size_t u = 0; u < refined.size(); ++u) {
    refined_sets[u].insert(refined[u].begin(), refined[u].end());
  }
  for (const algebra::MatchedGraph& m : *matches) {
    for (size_t u = 0; u < m.node_mapping.size(); ++u) {
      EXPECT_TRUE(refined_sets[u].count(m.node_mapping[u]))
          << "refinement removed node " << m.node_mapping[u]
          << " from Phi(" << u << ")";
    }
  }

  // And matching in the refined space finds exactly the same match count.
  auto refined_matches = SearchMatches(p, g, refined, DeclarationOrder(p));
  ASSERT_TRUE(refined_matches.ok());
  EXPECT_EQ(refined_matches->size(), matches->size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RefineSoundnessTest,
    ::testing::Combine(::testing::Range(0, 8), ::testing::Values(3, 4, 6)));

}  // namespace
}  // namespace graphql::match
