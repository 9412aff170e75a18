#include "match/pipeline.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "lang/parser.h"
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

TEST(PipelineTest, Figure417SearchSpaces) {
  // The running example's three retrieval strategies:
  //   by node attributes:        {A1,A2} x {B1,B2} x {C1,C2} -> 8
  //   by profiles:               {A1} x {B1,B2} x {C2}       -> 2
  //   by neighborhood subgraphs: {A1} x {B1} x {C2}          -> 1
  Graph g = Sample();
  algebra::GraphPattern p = Triangle();
  LabelIndex index = LabelIndex::Build(g);

  PipelineOptions options;
  PipelineStats stats;

  options.candidate_mode = CandidateMode::kLabelOnly;
  options.refine_level = 0;
  RetrieveCandidates(p, g, &index, options, &stats);
  EXPECT_DOUBLE_EQ(stats.SpaceAttr(), 8.0);
  EXPECT_DOUBLE_EQ(stats.SpaceRetrieved(), 8.0);

  options.candidate_mode = CandidateMode::kProfile;
  RetrieveCandidates(p, g, &index, options, &stats);
  EXPECT_DOUBLE_EQ(stats.SpaceRetrieved(), 2.0);

  options.candidate_mode = CandidateMode::kNeighborhood;
  RetrieveCandidates(p, g, &index, options, &stats);
  EXPECT_DOUBLE_EQ(stats.SpaceRetrieved(), 1.0);
}

TEST(PipelineTest, RefinementShrinksProfileSpaceToOne) {
  // Figure 4.18: refined space {A1} x {B1} x {C2}.
  Graph g = Sample();
  algebra::GraphPattern p = Triangle();
  LabelIndex index = LabelIndex::Build(g);
  PipelineOptions options;  // Profile retrieval by default.
  options.refine_level = -1;  // Full refinement.
  PipelineStats stats;
  auto matches = MatchPattern(p, g, &index, options, &stats);
  ASSERT_TRUE(matches.ok()) << matches.status();
  EXPECT_DOUBLE_EQ(stats.SpaceRefined(), 1.0);
  EXPECT_EQ(matches->size(), 1u);
  EXPECT_EQ(stats.num_matches, 1u);
}

/// All option combinations must return the same matches (property sweep).
struct PipelineParam {
  CandidateMode mode;
  int refine_level;
  bool optimize_order;
};

class PipelineEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(PipelineEquivalenceTest, OptionsDoNotChangeResults) {
  auto [mode_i, refine, optimize] = GetParam();
  Rng rng(777);
  workload::ErdosRenyiOptions gopts;
  gopts.num_nodes = 150;
  gopts.num_edges = 500;
  gopts.num_labels = 6;
  Graph g = workload::MakeErdosRenyi(gopts, &rng);
  LabelIndex index = LabelIndex::Build(g);

  auto q = workload::ExtractConnectedQuery(g, 4, &rng);
  ASSERT_TRUE(q.ok()) << q.status();
  algebra::GraphPattern p = algebra::GraphPattern::FromGraph(*q);

  // Reference: label-only candidates, no refinement, declaration order.
  PipelineOptions ref;
  ref.candidate_mode = CandidateMode::kLabelOnly;
  ref.refine_level = 0;
  ref.optimize_order = false;
  auto expected = MatchPattern(p, g, &index, ref);
  ASSERT_TRUE(expected.ok());

  PipelineOptions options;
  options.candidate_mode = static_cast<CandidateMode>(mode_i);
  options.refine_level = refine;
  options.optimize_order = optimize;
  auto got = MatchPattern(p, g, &index, options);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->size(), expected->size());
  for (const auto& m : *got) {
    EXPECT_TRUE(m.Verify());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineEquivalenceTest,
    ::testing::Combine(::testing::Values(0, 1, 2),       // CandidateMode
                       ::testing::Values(0, 1, -1),      // refine level
                       ::testing::Bool()));              // optimize order

TEST(PipelineTest, NullIndexFallsBackToScan) {
  Graph g = Sample();
  algebra::GraphPattern p = Triangle();
  auto matches = MatchPattern(p, g, nullptr);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->size(), 1u);
}

TEST(PipelineTest, WildcardPatternNodeUsesAllNodes) {
  Graph g = Sample();
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u; node v <label=\"C\">; edge (u, v); }");
  ASSERT_TRUE(p.ok());
  LabelIndex index = LabelIndex::Build(g);
  PipelineOptions options;
  PipelineStats stats;
  auto matches = MatchPattern(*p, g, &index, options, &stats);
  ASSERT_TRUE(matches.ok());
  // Edges into C nodes: c2 has 3 neighbors, c1 has 1 -> 4 matches.
  EXPECT_EQ(matches->size(), 4u);
}

TEST(PipelineTest, StatsTimingsArePopulated) {
  Graph g = Sample();
  algebra::GraphPattern p = Triangle();
  LabelIndex index = LabelIndex::Build(g);
  PipelineStats stats;
  auto matches = MatchPattern(p, g, &index, PipelineOptions{}, &stats);
  ASSERT_TRUE(matches.ok());
  EXPECT_GE(stats.us_retrieve, 0);
  EXPECT_GE(stats.TotalMicros(), 0);
  EXPECT_EQ(stats.order.size(), 3u);
  EXPECT_EQ(stats.size_attr.size(), 3u);
}

TEST(PipelineTest, StatsMicrosComeFromTraceSpans) {
  // PipelineStats stage timings are defined as the trace span durations:
  // each stage's us_* is the sum of the "match" span's children of that
  // name, and they sum to TotalMicros(). Forced refinement runs each stage
  // once; on demand, the attempt here ends within its budget, so no
  // refine span appears.
  Graph g = Sample();
  algebra::GraphPattern p = Triangle();
  LabelIndex index = LabelIndex::Build(g);

  for (int level : {-1, kRefineOnDemand}) {
    obs::Tracer tracer(true);
    PipelineOptions options;
    options.refine_level = level;
    options.tracer = &tracer;
    PipelineStats stats;
    auto matches = MatchPattern(p, g, &index, options, &stats);
    ASSERT_TRUE(matches.ok());
    const std::string where = "refine_level " + std::to_string(level);

    ASSERT_EQ(tracer.roots().size(), 1u);
    const obs::TraceNode& match_span = *tracer.roots()[0];
    EXPECT_EQ(match_span.name, "match");
    std::map<std::string, int64_t> us;
    std::map<std::string, int> spans;
    for (const auto& child : match_span.children) {
      us[child->name] += child->duration_us;
      ++spans[child->name];
    }
    EXPECT_EQ(spans["retrieve"], 1) << where;
    EXPECT_EQ(spans["refine"], level == -1 ? 1 : 0) << where;
    EXPECT_EQ(spans["order"], 1) << where;
    EXPECT_EQ(spans["search"], 1) << where;
    EXPECT_EQ(stats.members_refined, level == -1 ? 1u : 0u) << where;

    EXPECT_EQ(stats.us_retrieve, us["retrieve"]) << where;
    EXPECT_EQ(stats.us_refine, us["refine"]) << where;
    EXPECT_EQ(stats.us_order, us["order"]) << where;
    EXPECT_EQ(stats.us_search, us["search"]) << where;
    EXPECT_EQ(stats.TotalMicros(),
              us["retrieve"] + us["refine"] + us["order"] + us["search"])
        << where;

    // Span attributes carry the same counts as the stats struct.
    const obs::TraceNode* search = match_span.Child("search");
    ASSERT_NE(search, nullptr);
    EXPECT_EQ(search->Attr("steps"),
              static_cast<int64_t>(stats.search.steps));
    EXPECT_EQ(match_span.Attr("matches"),
              static_cast<int64_t>(stats.num_matches));
    if (level == kRefineOnDemand) {
      EXPECT_EQ(search->Attr("budget"),
                static_cast<int64_t>(stats.attempt_budget));
      EXPECT_EQ(search->Attr("stopped", -1), 0);
    }
  }
}

TEST(PipelineTest, MetricsFlushedPerQuery) {
  Graph g = Sample();
  algebra::GraphPattern p = Triangle();
  LabelIndex index = LabelIndex::Build(g);

  obs::MetricsRegistry registry;
  PipelineOptions options;
  options.metrics = &registry;
  PipelineStats stats;
  auto matches = MatchPattern(p, g, &index, options, &stats);
  ASSERT_TRUE(matches.ok());

  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("match.queries"), 1u);
  EXPECT_EQ(snap.counters.at("match.search.steps"), stats.search.steps);
  EXPECT_EQ(snap.counters.at("match.search.matches"),
            static_cast<uint64_t>(stats.num_matches));
  EXPECT_EQ(snap.histograms.at("match.query.us").count, 1u);
}

TEST(PipelineTest, NullMetricsDisablesEmission) {
  Graph g = Sample();
  algebra::GraphPattern p = Triangle();
  LabelIndex index = LabelIndex::Build(g);
  PipelineOptions options;
  options.metrics = nullptr;
  auto matches = MatchPattern(p, g, &index, options);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->size(), 1u);
}

TEST(SelectCollectionTest, ExhaustiveVsFirstMatch) {
  GraphCollection coll;
  coll.Add(Sample());
  coll.Add(Sample());
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u <label=\"B\">; }");
  ASSERT_TRUE(p.ok());
  PipelineOptions exhaustive;
  exhaustive.match.exhaustive = true;
  auto all = SelectCollection(*p, coll, exhaustive);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 4u);  // 2 B-nodes per graph.

  PipelineOptions first;
  first.match.exhaustive = false;
  auto one = SelectCollection(*p, coll, first);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->size(), 2u);  // One binding per member graph.
}

TEST(SelectCollectionAnyTest, DisjunctivePattern) {
  GraphCollection coll;
  coll.Add(Sample());
  auto decl = lang::Parser::ParseGraph(
      "graph P { { node u <label=\"Z\">; } | { node u <label=\"A\">; }; }");
  ASSERT_TRUE(decl.ok());
  auto alts = algebra::GraphPattern::CreateAll(*decl);
  ASSERT_TRUE(alts.ok());
  ASSERT_EQ(alts->size(), 2u);
  auto matches = SelectCollectionAny(*alts, coll);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->size(), 2u);  // The two A nodes via alternative 2.
}

/// Exact graph isomorphism including attributes: a bijective node mapping
/// exists under which edges and all node, edge and graph attributes
/// correspond. Decided by two subgraph-isomorphism runs of the pipeline (a
/// into b and b into a) after size checks, so both attribute containments
/// force equality. Assumes simple graphs (parallel-edge multiplicity is
/// not distinguished). It runs the engine itself, so the tests below check
/// the mutual-embedding construction, not the engine.
bool AreIsomorphic(const Graph& a, const Graph& b) {
  if (a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges()) {
    return false;
  }
  if (a.directed() != b.directed()) return false;
  if (!(a.attrs() == b.attrs())) return false;
  auto embeds = [](const Graph& from, const Graph& into) {
    algebra::GraphPattern p = algebra::GraphPattern::FromGraph(from);
    PipelineOptions options;
    options.candidate_mode = CandidateMode::kLabelOnly;
    options.refine_level = -1;
    options.match.exhaustive = false;
    Result<std::vector<algebra::MatchedGraph>> m =
        MatchPattern(p, into, nullptr, options);
    return m.ok() && !m->empty();
  };
  return embeds(a, b) && embeds(b, a);
}

TEST(AreIsomorphicTest, RelabeledTriangleIsIsomorphic) {
  auto a = motif::GraphFromSource(R"(
    graph A { node x <label="A">; node y <label="B">; node z <label="C">;
              edge (x, y); edge (y, z); edge (z, x); })");
  auto b = motif::GraphFromSource(R"(
    graph B { node p <label="C">; node q <label="A">; node r <label="B">;
              edge (q, r); edge (r, p); edge (p, q); })");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(AreIsomorphic(*a, *b));
}

TEST(AreIsomorphicTest, DifferentStructureRejected) {
  auto tri = motif::GraphFromSource(R"(
    graph A { node x; node y; node z; edge (x, y); edge (y, z);
              edge (z, x); })");
  auto path = motif::GraphFromSource(R"(
    graph B { node x; node y; node z; edge (x, y); edge (y, z); })");
  ASSERT_TRUE(tri.ok());
  ASSERT_TRUE(path.ok());
  EXPECT_FALSE(AreIsomorphic(*tri, *path));  // Edge counts differ.
  // Same counts, different shape: triangle+isolated vs 4-path is caught
  // by the embedding itself.
  auto tri_plus = motif::GraphFromSource(R"(
    graph A { node x; node y; node z; node w;
              edge (x, y); edge (y, z); edge (z, x); })");
  auto path4 = motif::GraphFromSource(R"(
    graph B { node x; node y; node z; node w;
              edge (x, y); edge (y, z); edge (z, w); })");
  ASSERT_TRUE(tri_plus.ok());
  ASSERT_TRUE(path4.ok());
  EXPECT_FALSE(AreIsomorphic(*tri_plus, *path4));
}

TEST(AreIsomorphicTest, AttributeSupersetRejected) {
  // Mutual-embedding subtlety: extra attributes on one side must break
  // isomorphism even though one direction embeds.
  Graph a;
  AttrTuple ta;
  ta.Set("k", Value(int64_t{1}));
  a.AddNode("x", ta);
  Graph b;
  AttrTuple tb;
  tb.Set("k", Value(int64_t{1}));
  tb.Set("extra", Value(int64_t{2}));
  b.AddNode("y", tb);
  EXPECT_FALSE(AreIsomorphic(a, b));
  EXPECT_FALSE(AreIsomorphic(b, a));
  EXPECT_TRUE(AreIsomorphic(a, a));
}

TEST(AreIsomorphicTest, DirectednessAndGraphAttrsChecked) {
  Graph d1("x", /*directed=*/true);
  d1.AddNode();
  Graph u1("x", /*directed=*/false);
  u1.AddNode();
  EXPECT_FALSE(AreIsomorphic(d1, u1));
  Graph g1;
  g1.attrs().Set("v", Value(int64_t{1}));
  g1.AddNode();
  Graph g2;
  g2.attrs().Set("v", Value(int64_t{2}));
  g2.AddNode();
  EXPECT_FALSE(AreIsomorphic(g1, g2));
}

TEST(AreIsomorphicTest, DirectedOrientationMatters) {
  Graph a("a", /*directed=*/true);
  a.AddNode();
  a.AddNode();
  a.AddNode();
  a.AddEdge(0, 1);
  a.AddEdge(1, 2);  // Path through node 1.
  Graph b("a", /*directed=*/true);
  b.AddNode();
  b.AddNode();
  b.AddNode();
  b.AddEdge(1, 0);
  b.AddEdge(1, 2);  // Out-star at node 1.
  EXPECT_FALSE(AreIsomorphic(a, b));
  Graph c("a", /*directed=*/true);
  c.AddNode();
  c.AddNode();
  c.AddNode();
  c.AddEdge(2, 0);
  c.AddEdge(0, 1);  // Path through node 0: isomorphic to `a`.
  EXPECT_TRUE(AreIsomorphic(a, c));
}

TEST(PipelineTest, CandidateModeNames) {
  EXPECT_STREQ(CandidateModeName(CandidateMode::kLabelOnly), "label-only");
  EXPECT_STREQ(CandidateModeName(CandidateMode::kProfile), "profile");
  EXPECT_STREQ(CandidateModeName(CandidateMode::kNeighborhood),
               "neighborhood");
}

}  // namespace
}  // namespace graphql::match
