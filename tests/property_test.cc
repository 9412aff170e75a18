#include <gtest/gtest.h>

#include <set>

#include "algebra/pattern.h"
#include "match/pipeline.h"
#include "match_oracle.h"
#include "workload/erdos_renyi.h"
#include "workload/queries.h"

namespace graphql {
namespace {

using match::oracle::BruteForceMatches;

class MatcherPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MatcherPropertyTest, PipelineAgreesWithBruteForce) {
  auto [seed, qsize] = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 2654435761u + 3);
  workload::ErdosRenyiOptions opts;
  opts.num_nodes = 12;
  opts.num_edges = 24;
  opts.num_labels = 3;
  Graph g = workload::MakeErdosRenyi(opts, &rng);
  auto q = workload::ExtractConnectedQuery(g, static_cast<size_t>(qsize),
                                           &rng);
  ASSERT_TRUE(q.ok()) << q.status();
  algebra::GraphPattern p = algebra::GraphPattern::FromGraph(*q);

  std::set<std::vector<NodeId>> expected = BruteForceMatches(p, g);
  ASSERT_FALSE(expected.empty());

  match::LabelIndex index = match::LabelIndex::Build(g);
  for (auto mode :
       {match::CandidateMode::kLabelOnly, match::CandidateMode::kProfile,
        match::CandidateMode::kNeighborhood}) {
    match::PipelineOptions options;
    options.candidate_mode = mode;
    auto got = match::MatchPattern(p, g, &index, options);
    ASSERT_TRUE(got.ok()) << got.status();
    std::set<std::vector<NodeId>> got_set;
    for (const auto& m : *got) {
      EXPECT_TRUE(m.Verify());
      got_set.insert(m.node_mapping);
    }
    EXPECT_EQ(got_set, expected)
        << "mode=" << match::CandidateModeName(mode);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MatcherPropertyTest,
    ::testing::Combine(::testing::Range(0, 12), ::testing::Values(2, 3, 4)));

/// Directed graphs: the matcher respects edge direction (brute force
/// cross-check; HasEdgeBetween is direction-aware on directed graphs).
class DirectedPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DirectedPropertyTest, DirectedMatchingAgreesWithBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 15485863 + 7);
  Graph g("d", /*directed=*/true);
  size_t n = 14;
  for (size_t i = 0; i < n; ++i) {
    AttrTuple attrs;
    attrs.Set("label", Value("L" + std::to_string(rng.NextBounded(3))));
    g.AddNode("", attrs);
  }
  for (int i = 0; i < 30; ++i) {
    g.AddEdge(static_cast<NodeId>(rng.NextBounded(n)),
              static_cast<NodeId>(rng.NextBounded(n)));
  }
  // Directed 3-node pattern: a -> b -> c with random labels.
  Graph motif("P", /*directed=*/true);
  for (int i = 0; i < 3; ++i) {
    AttrTuple attrs;
    attrs.Set("label", Value("L" + std::to_string(rng.NextBounded(3))));
    motif.AddNode("u" + std::to_string(i), attrs);
  }
  motif.AddEdge(0, 1);
  motif.AddEdge(1, 2);
  algebra::GraphPattern p = algebra::GraphPattern::FromGraph(motif);

  std::set<std::vector<NodeId>> expected = BruteForceMatches(p, g);
  match::LabelIndex index = match::LabelIndex::Build(g);
  auto got = match::MatchPattern(p, g, &index);
  ASSERT_TRUE(got.ok()) << got.status();
  std::set<std::vector<NodeId>> got_set;
  for (const auto& m : *got) {
    EXPECT_TRUE(m.Verify());
    got_set.insert(m.node_mapping);
  }
  EXPECT_EQ(got_set, expected);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DirectedPropertyTest, ::testing::Range(0, 10));

/// Wildcard and predicate patterns against brute force.
class PredicatePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PredicatePropertyTest, GlobalPredicateAgreesWithBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 48271 + 11);
  workload::ErdosRenyiOptions opts;
  opts.num_nodes = 10;
  opts.num_edges = 20;
  opts.num_labels = 2;
  Graph g = workload::MakeErdosRenyi(opts, &rng);
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u; node v; edge (u, v); } where u.label == v.label");
  ASSERT_TRUE(p.ok());
  std::set<std::vector<NodeId>> expected = BruteForceMatches(*p, g);
  auto got = match::MatchPattern(*p, g, nullptr);
  ASSERT_TRUE(got.ok());
  std::set<std::vector<NodeId>> got_set;
  for (const auto& m : *got) got_set.insert(m.node_mapping);
  EXPECT_EQ(got_set, expected);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PredicatePropertyTest,
                         ::testing::Range(0, 8));

/// Materialized matched graphs are themselves graphs that match the
/// pattern (closure property of matched graphs, Section 3.2).
TEST(MatchedGraphPropertyTest, MaterializedMatchRematches) {
  Rng rng(99);
  workload::ErdosRenyiOptions opts;
  opts.num_nodes = 40;
  opts.num_edges = 120;
  opts.num_labels = 3;
  Graph g = workload::MakeErdosRenyi(opts, &rng);
  auto q = workload::ExtractConnectedQuery(g, 4, &rng);
  ASSERT_TRUE(q.ok());
  algebra::GraphPattern p = algebra::GraphPattern::FromGraph(*q);
  auto matches = match::MatchPattern(p, g, nullptr);
  ASSERT_TRUE(matches.ok());
  ASSERT_FALSE(matches->empty());
  for (size_t i = 0; i < std::min<size_t>(5, matches->size()); ++i) {
    Graph m = (*matches)[i].Materialize();
    auto again = match::MatchPattern(p, m, nullptr);
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE(again->empty());
  }
}

/// Monotonicity: stronger pruning never yields a larger search space.
TEST(PruningPropertyTest, SpacesAreMonotone) {
  Rng rng(4242);
  workload::ErdosRenyiOptions opts;
  opts.num_nodes = 200;
  opts.num_edges = 700;
  opts.num_labels = 8;
  Graph g = workload::MakeErdosRenyi(opts, &rng);
  match::LabelIndex index = match::LabelIndex::Build(g);
  for (int trial = 0; trial < 5; ++trial) {
    auto q = workload::ExtractConnectedQuery(g, 5, &rng);
    ASSERT_TRUE(q.ok());
    algebra::GraphPattern p = algebra::GraphPattern::FromGraph(*q);
    match::PipelineOptions options;
    match::PipelineStats label_stats;
    options.candidate_mode = match::CandidateMode::kLabelOnly;
    match::RetrieveCandidates(p, g, &index, options, &label_stats);
    match::PipelineStats profile_stats;
    options.candidate_mode = match::CandidateMode::kProfile;
    match::RetrieveCandidates(p, g, &index, options, &profile_stats);
    match::PipelineStats nbh_stats;
    options.candidate_mode = match::CandidateMode::kNeighborhood;
    match::RetrieveCandidates(p, g, &index, options, &nbh_stats);

    EXPECT_LE(profile_stats.SpaceRetrieved(), label_stats.SpaceRetrieved());
    EXPECT_LE(nbh_stats.SpaceRetrieved(), profile_stats.SpaceRetrieved());

    // Refinement only shrinks further.
    match::PipelineStats full_stats;
    options.candidate_mode = match::CandidateMode::kProfile;
    options.refine_level = -1;
    auto r = match::MatchPattern(p, g, &index, options, &full_stats);
    ASSERT_TRUE(r.ok());
    EXPECT_LE(full_stats.SpaceRefined(), full_stats.SpaceRetrieved());
  }
}

/// Determinism: the same seed and options give byte-identical results.
TEST(DeterminismPropertyTest, PipelineIsDeterministic) {
  for (int run = 0; run < 2; ++run) {
    Rng rng(31415);
    workload::ErdosRenyiOptions opts;
    opts.num_nodes = 100;
    opts.num_edges = 300;
    opts.num_labels = 5;
    Graph g = workload::MakeErdosRenyi(opts, &rng);
    auto q = workload::ExtractConnectedQuery(g, 4, &rng);
    ASSERT_TRUE(q.ok());
    algebra::GraphPattern p = algebra::GraphPattern::FromGraph(*q);
    match::LabelIndex index = match::LabelIndex::Build(g);
    auto matches = match::MatchPattern(p, g, &index);
    ASSERT_TRUE(matches.ok());
    static std::vector<std::vector<NodeId>> first_run;
    std::vector<std::vector<NodeId>> mappings;
    for (const auto& m : *matches) mappings.push_back(m.node_mapping);
    if (run == 0) {
      first_run = mappings;
    } else {
      EXPECT_EQ(mappings, first_run);
    }
  }
}

}  // namespace
}  // namespace graphql
