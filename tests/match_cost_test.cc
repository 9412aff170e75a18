#include "match/cost.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "match/matcher.h"
#include "match_oracle.h"
#include "motif/deriver.h"

namespace graphql::match {
namespace {

algebra::GraphPattern PathPattern() {
  // A - B - C path: A joins to B, B to C.
  auto p = algebra::GraphPattern::Parse(R"(
    graph P {
      node u1 <label="A">; node u2 <label="B">; node u3 <label="C">;
      edge (u1, u2); edge (u2, u3);
    })");
  EXPECT_TRUE(p.ok()) << p.status();
  return std::move(p).value();
}

TEST(CostTest, GreedyStartsWithSmallestCandidateSet) {
  algebra::GraphPattern p = PathPattern();
  std::vector<std::vector<NodeId>> cand = {{0, 1, 2}, {3}, {4, 5}};
  std::vector<NodeId> order = GreedySearchOrder(p, cand, nullptr);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);  // |Phi(u2)| == 1 is smallest.
}

TEST(CostTest, OrderIsAPermutation) {
  algebra::GraphPattern p = PathPattern();
  std::vector<std::vector<NodeId>> cand = {{0}, {1}, {2}};
  std::vector<NodeId> order = GreedySearchOrder(p, cand, nullptr);
  std::vector<NodeId> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<NodeId>{0, 1, 2}));
}

algebra::GraphPattern TrianglePattern() {
  auto p = algebra::GraphPattern::Parse(R"(
    graph P {
      node u1 <label="A">; node u2 <label="B">; node u3 <label="C">;
      edge (u1, u2); edge (u2, u3); edge (u3, u1);
    })");
  EXPECT_TRUE(p.ok()) << p.status();
  return std::move(p).value();
}

TEST(CostTest, PaperExampleOrderPrefersJoiningCFirst) {
  // Section 4.4 example: space {A1} x {B1,B2} x {C2} for the triangle
  // query; order (A >< C) >< B (cost 1 + 2 gamma) beats (A >< B) >< C
  // (cost 2 + 2 gamma).
  algebra::GraphPattern p = TrianglePattern();
  std::vector<std::vector<NodeId>> cand = {{0}, {1, 2}, {3}};
  std::vector<NodeId> order = GreedySearchOrder(p, cand, nullptr);
  // Greedy: A (|1|) first, then C (|1|) before B (|2|).
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 1);
}

TEST(CostTest, EstimateOrderCostMatchesPaperExample) {
  // Section 4.4's arithmetic with constant gamma g:
  // cost((A><B)><C) = 1*2 + (2g)*1 = 2 + 2g;
  // cost((A><C)><B) = 1*1 + (1g)*2 = 1 + 2g.
  algebra::GraphPattern p = TrianglePattern();
  std::vector<size_t> sizes = {1, 2, 1};
  OrderOptions opt;
  opt.use_edge_probs = false;
  opt.constant_gamma = 0.5;
  double abc = EstimateOrderCost(p, sizes, {0, 1, 2}, nullptr, opt);
  double acb = EstimateOrderCost(p, sizes, {0, 2, 1}, nullptr, opt);
  EXPECT_DOUBLE_EQ(abc, 2.0 + 2.0 * 0.5);
  EXPECT_DOUBLE_EQ(acb, 1.0 + 2.0 * 0.5);
  EXPECT_LT(acb, abc);
}

TEST(CostTest, EdgeProbabilitiesFromIndex) {
  // Data where A-B edges are rare relative to label frequencies.
  auto g = motif::GraphFromSource(R"(
    graph G {
      node a1 <label="A">; node a2 <label="A">; node a3 <label="A">;
      node b1 <label="B">; node b2 <label="B">; node b3 <label="B">;
      node c1 <label="C">;
      edge (a1, b1);
      edge (a1, c1); edge (a2, c1); edge (a3, c1);
    })");
  ASSERT_TRUE(g.ok());
  LabelIndex index = LabelIndex::Build(*g);
  SymbolId a = index.LabelSym("A");
  SymbolId b = index.LabelSym("B");
  SymbolId c = index.LabelSym("C");
  // P(A-B) = 1 / (3*3); P(A-C) = 3 / (3*1).
  EXPECT_DOUBLE_EQ(index.EdgeProbability(a, b, 0.5), 1.0 / 9.0);
  EXPECT_DOUBLE_EQ(index.EdgeProbability(a, c, 0.5), 1.0);
  // Unknown pairing: 0 frequency -> probability 0 (not the fallback).
  EXPECT_DOUBLE_EQ(index.EdgeProbability(b, c, 0.5), 0.0);
}

TEST(CostTest, EdgeProbabilityFallbackForUnknownLabel) {
  auto g = motif::GraphFromSource(R"(
    graph G { node a <label="A">; })");
  ASSERT_TRUE(g.ok());
  LabelIndex index = LabelIndex::Build(*g);
  EXPECT_DOUBLE_EQ(
      index.EdgeProbability(kNoSymbol, 0, 0.25), 0.25);
}

TEST(CostTest, GreedyUsesEdgeProbTieBreak) {
  // u1 connects to u2 with a rare edge and to u3 with a common one; after
  // picking u1, both u2 and u3 have |Phi| = 2, so the tie breaks toward
  // the smaller estimated result (the rarer edge).
  auto g = motif::GraphFromSource(R"(
    graph G {
      node a1 <label="A">;
      node b1 <label="B">; node b2 <label="B">;
      node c1 <label="C">; node c2 <label="C">;
      edge (a1, b1);
      edge (a1, c1); edge (a1, c2);
      edge (b2, c1);
    })");
  ASSERT_TRUE(g.ok());
  LabelIndex index = LabelIndex::Build(*g);
  auto p = algebra::GraphPattern::Parse(R"(
    graph P {
      node u1 <label="A">; node u2 <label="B">; node u3 <label="C">;
      edge (u1, u2); edge (u1, u3);
    })");
  ASSERT_TRUE(p.ok());
  std::vector<std::vector<NodeId>> cand = {
      {0}, {1, 2}, {3, 4}};
  std::vector<NodeId> order = GreedySearchOrder(*p, cand, &index);
  EXPECT_EQ(order[0], 0);
  // P(A-B) = 1/2 < P(A-C) = 2/2: join B before C.
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 2);
}

TEST(CostTest, DpOrderNeverWorseThanGreedy) {
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    // Random pattern shape + random candidate sizes.
    Graph motif("P");
    size_t k = 3 + rng.NextBounded(5);
    for (size_t i = 0; i < k; ++i) {
      AttrTuple attrs;
      attrs.Set("label", Value("L" + std::to_string(rng.NextBounded(3))));
      motif.AddNode("u" + std::to_string(i), attrs);
    }
    for (size_t i = 1; i < k; ++i) {
      motif.AddEdge(static_cast<NodeId>(rng.NextBounded(i)),
                    static_cast<NodeId>(i));
    }
    algebra::GraphPattern p = algebra::GraphPattern::FromGraph(motif);
    std::vector<std::vector<NodeId>> cand(k);
    std::vector<size_t> sizes(k);
    for (size_t i = 0; i < k; ++i) {
      sizes[i] = 1 + rng.NextBounded(40);
      cand[i].resize(sizes[i]);
    }
    OrderOptions opt;
    opt.use_edge_probs = false;
    std::vector<NodeId> greedy = GreedySearchOrder(p, cand, nullptr, opt);
    auto dp = oracle::DpSearchOrder(p, cand, nullptr, opt);
    ASSERT_TRUE(dp.ok()) << dp.status();
    double greedy_cost = EstimateOrderCost(p, sizes, greedy, nullptr, opt);
    double dp_cost = EstimateOrderCost(p, sizes, *dp, nullptr, opt);
    EXPECT_LE(dp_cost, greedy_cost * (1 + 1e-9)) << "trial " << trial;
    // DP output is a permutation.
    std::vector<NodeId> sorted = *dp;
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < k; ++i) {
      EXPECT_EQ(sorted[i], static_cast<NodeId>(i));
    }
  }
}

TEST(CostTest, DpMatchesPaperExample) {
  algebra::GraphPattern p = TrianglePattern();
  std::vector<std::vector<NodeId>> cand = {{0}, {1, 2}, {3}};
  OrderOptions opt;
  opt.use_edge_probs = false;
  auto dp = oracle::DpSearchOrder(p, cand, nullptr, opt);
  ASSERT_TRUE(dp.ok());
  std::vector<size_t> sizes = {1, 2, 1};
  EXPECT_DOUBLE_EQ(EstimateOrderCost(p, sizes, *dp, nullptr, opt),
                   1.0 + 2.0 * 0.5);
}

TEST(CostTest, DpRejectsOversizedPattern) {
  Graph motif("P");
  for (size_t i = 0; i < oracle::kMaxDpPatternSize + 1; ++i) {
    motif.AddNode("u" + std::to_string(i));
    if (i > 0) {
      motif.AddEdge(static_cast<NodeId>(i - 1), static_cast<NodeId>(i));
    }
  }
  algebra::GraphPattern p = algebra::GraphPattern::FromGraph(motif);
  std::vector<std::vector<NodeId>> cand(oracle::kMaxDpPatternSize + 1);
  auto dp = oracle::DpSearchOrder(p, cand, nullptr);
  ASSERT_FALSE(dp.ok());
  EXPECT_EQ(dp.status().code(), StatusCode::kInvalidArgument);
}

TEST(CostTest, SearchWithAnyOrderFindsSameMatches) {
  auto g = motif::GraphFromSource(R"(
    graph G {
      node a1 <label="A">; node b1 <label="B">; node c1 <label="C">;
      node a2 <label="A">; node b2 <label="B">;
      edge (a1, b1); edge (b1, c1); edge (a2, b2); edge (b2, c1);
    })");
  ASSERT_TRUE(g.ok());
  algebra::GraphPattern p = PathPattern();
  std::vector<std::vector<NodeId>> cand = oracle::ScanCandidates(p, *g);
  std::vector<NodeId> greedy = GreedySearchOrder(p, cand, nullptr);
  auto m1 = SearchMatches(p, *g, cand, greedy);
  auto m2 = SearchMatches(p, *g, cand, DeclarationOrder(p));
  auto m3 = SearchMatches(p, *g, cand, {2, 0, 1});
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  ASSERT_TRUE(m3.ok());
  EXPECT_EQ(m1->size(), m2->size());
  EXPECT_EQ(m1->size(), m3->size());
  EXPECT_EQ(m1->size(), 2u);
}

}  // namespace
}  // namespace graphql::match
