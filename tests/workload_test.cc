#include <gtest/gtest.h>

#include <map>

#include "algebra/pattern.h"
#include "match/label_index.h"
#include "match/matcher.h"
#include "match_oracle.h"
#include "workload/dblp.h"
#include "workload/erdos_renyi.h"
#include "workload/protein_network.h"
#include "workload/queries.h"

namespace graphql::workload {
namespace {

TEST(ErdosRenyiTest, ShapeMatchesOptions) {
  Rng rng(1);
  ErdosRenyiOptions opts;
  opts.num_nodes = 1000;
  opts.num_edges = 5000;
  opts.num_labels = 100;
  Graph g = MakeErdosRenyi(opts, &rng);
  EXPECT_EQ(g.NumNodes(), 1000u);
  EXPECT_EQ(g.NumEdges(), 5000u);
}

TEST(ErdosRenyiTest, SimpleGraphNoDuplicatesOrLoops) {
  Rng rng(2);
  ErdosRenyiOptions opts;
  opts.num_nodes = 50;
  opts.num_edges = 200;
  Graph g = MakeErdosRenyi(opts, &rng);
  std::set<std::pair<NodeId, NodeId>> seen;
  for (size_t e = 0; e < g.NumEdges(); ++e) {
    const Graph::Edge& ed = g.edge(static_cast<EdgeId>(e));
    EXPECT_NE(ed.src, ed.dst);
    auto key = std::minmax(ed.src, ed.dst);
    EXPECT_TRUE(seen.insert({key.first, key.second}).second);
  }
}

TEST(ErdosRenyiTest, LabelsFollowZipf) {
  Rng rng(3);
  ErdosRenyiOptions opts;
  opts.num_nodes = 20000;
  opts.num_edges = 100;
  opts.num_labels = 10;
  Graph g = MakeErdosRenyi(opts, &rng);
  std::map<std::string, size_t> counts;
  for (size_t v = 0; v < g.NumNodes(); ++v) {
    counts[std::string(g.Label(static_cast<NodeId>(v)))]++;
  }
  // L0 is the most frequent; roughly twice L1 under alpha=1.
  EXPECT_GT(counts["L0"], counts["L1"]);
  EXPECT_NEAR(static_cast<double>(counts["L0"]) / counts["L1"], 2.0, 0.4);
}

TEST(ErdosRenyiTest, DeterministicForSeed) {
  ErdosRenyiOptions opts;
  opts.num_nodes = 100;
  opts.num_edges = 300;
  Rng r1(42);
  Rng r2(42);
  Graph a = MakeErdosRenyi(opts, &r1);
  Graph b = MakeErdosRenyi(opts, &r2);
  EXPECT_TRUE(a.IdenticalTo(b));
}

TEST(ProteinNetworkTest, PaperShapeDefaults) {
  Rng rng(4);
  Graph g = MakeProteinNetwork(ProteinNetworkOptions{}, &rng);
  EXPECT_EQ(g.NumNodes(), 3112u);
  EXPECT_EQ(g.NumEdges(), 12519u);
  // 183 labels available; the realized count is close to that.
  match::LabelIndex index = match::LabelIndex::Build(
      g, match::LabelIndexOptions{.radius = 0,
                                  .build_profiles = false,
                                  .build_neighborhoods = false,
                                  .indexed_attributes = {}});
  EXPECT_GT(index.NumLabels(), 150u);
  EXPECT_LE(index.NumLabels(), 183u);
}

TEST(ProteinNetworkTest, DegreeDistributionIsSkewed) {
  Rng rng(5);
  Graph g = MakeProteinNetwork(ProteinNetworkOptions{}, &rng);
  size_t max_degree = 0;
  double total = 0;
  for (size_t v = 0; v < g.NumNodes(); ++v) {
    max_degree = std::max(max_degree, g.Degree(static_cast<NodeId>(v)));
    total += static_cast<double>(g.Degree(static_cast<NodeId>(v)));
  }
  double mean = total / static_cast<double>(g.NumNodes());
  // Heavy tail: the hub is far above the mean (PPI-like). Complexes take
  // part of the edge budget, so the preferential tail tops out around 6-8x
  // the mean degree.
  EXPECT_GT(static_cast<double>(max_degree), mean * 5);
}

TEST(CliqueQueryTest, ShapeAndLabels) {
  Rng rng(6);
  std::vector<std::string> labels = {"GO1", "GO2", "GO3"};
  Graph q = MakeCliqueQuery(5, labels, &rng);
  EXPECT_EQ(q.NumNodes(), 5u);
  EXPECT_EQ(q.NumEdges(), 10u);
  for (size_t v = 0; v < q.NumNodes(); ++v) {
    std::string l(q.Label(static_cast<NodeId>(v)));
    EXPECT_TRUE(l == "GO1" || l == "GO2" || l == "GO3");
    EXPECT_EQ(q.Degree(static_cast<NodeId>(v)), 4u);
  }
  EXPECT_TRUE(q.IsConnected());
}

TEST(ConnectedQueryTest, ExtractedQueryIsConnectedAndInduced) {
  Rng rng(7);
  ErdosRenyiOptions opts;
  opts.num_nodes = 200;
  opts.num_edges = 800;
  opts.num_labels = 5;
  Graph g = MakeErdosRenyi(opts, &rng);
  for (size_t size : {2u, 5u, 10u}) {
    auto q = ExtractConnectedQuery(g, size, &rng);
    ASSERT_TRUE(q.ok()) << q.status();
    EXPECT_EQ(q->NumNodes(), size);
    EXPECT_TRUE(q->IsConnected());
    EXPECT_GE(q->NumEdges(), size - 1);
  }
}

TEST(ConnectedQueryTest, ExtractedQueryAlwaysMatchesItsSource) {
  Rng rng(8);
  ErdosRenyiOptions opts;
  opts.num_nodes = 100;
  opts.num_edges = 400;
  opts.num_labels = 4;
  Graph g = MakeErdosRenyi(opts, &rng);
  for (int trial = 0; trial < 5; ++trial) {
    auto q = ExtractConnectedQuery(g, 5, &rng);
    ASSERT_TRUE(q.ok());
    algebra::GraphPattern p = algebra::GraphPattern::FromGraph(*q);
    auto cand = match::oracle::ScanCandidates(p, g);
    match::MatchOptions options;
    options.exhaustive = false;
    auto m = match::SearchMatches(p, g, cand, match::DeclarationOrder(p),
                                  options);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m->size(), 1u) << "trial " << trial;
  }
}

TEST(ConnectedQueryTest, OversizedRequestFails) {
  Graph tiny;
  tiny.AddNode("a");
  tiny.AddNode("b");
  tiny.AddEdge(0, 1);
  Rng rng(9);
  auto q = ExtractConnectedQuery(tiny, 10, &rng, 4);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

TEST(DblpTest, CollectionShape) {
  Rng rng(10);
  DblpOptions opts;
  opts.num_papers = 30;
  opts.num_authors = 12;
  GraphCollection c = MakeDblpCollection(opts, &rng);
  EXPECT_EQ(c.size(), 30u);
  for (const Graph& paper : c) {
    EXPECT_GE(paper.NumNodes(), opts.min_authors_per_paper);
    EXPECT_LE(paper.NumNodes(), opts.max_authors_per_paper);
    EXPECT_TRUE(paper.attrs().Has("booktitle"));
    EXPECT_TRUE(paper.attrs().Has("year"));
    for (size_t v = 0; v < paper.NumNodes(); ++v) {
      EXPECT_EQ(paper.node(static_cast<NodeId>(v)).attrs.tag(), "author");
    }
  }
}

TEST(LabelIndexTest, TopLabelsForCliqueGeneration) {
  Rng rng(11);
  Graph g = MakeProteinNetwork(ProteinNetworkOptions{}, &rng);
  match::LabelIndex index = match::LabelIndex::Build(
      g, match::LabelIndexOptions{.radius = 0,
                                  .build_profiles = false,
                                  .build_neighborhoods = false,
                                  .indexed_attributes = {}});
  auto top = index.LabelsByFrequency();
  ASSERT_GE(top.size(), 40u);
  // Frequencies are non-increasing.
  for (size_t i = 1; i < 40; ++i) {
    EXPECT_GE(index.LabelFrequency(top[i - 1]), index.LabelFrequency(top[i]));
  }
}

}  // namespace
}  // namespace graphql::workload
