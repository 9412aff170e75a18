#include <gtest/gtest.h>

#include "algebra/ops.h"
#include "algebra/pattern.h"
#include "datalog/translator.h"
#include "exec/evaluator.h"
#include "lang/parser.h"
#include "match/pipeline.h"
#include "motif/deriver.h"
#include "rel/sql_plan.h"
#include "workload/protein_network.h"
#include "workload/queries.h"

namespace graphql {
namespace {

/// The paper's RDF example (Section 1.1): find instances where two
/// departments of a company share the same shipping company, and report
/// the result as a new graph with departments as nodes.
TEST(IntegrationTest, RdfSharedShipperQuery) {
  auto g = motif::GraphFromSource(R"(
    graph RDF {
      node d1 <kind="dept", company="acme", name="sales">;
      node d2 <kind="dept", company="acme", name="ops">;
      node d3 <kind="dept", company="other", name="intl">;
      node s1 <kind="shipper", name="fastship">;
      node s2 <kind="shipper", name="slowship">;
      edge (d1, s1) <rel="shipping">;
      edge (d2, s1) <rel="shipping">;
      edge (d3, s2) <rel="shipping">;
    })");
  ASSERT_TRUE(g.ok()) << g.status();

  auto p = algebra::GraphPattern::Parse(R"(
    graph P {
      node a <kind="dept">;
      node b <kind="dept">;
      node s <kind="shipper">;
      edge e1 (a, s) <rel="shipping">;
      edge e2 (b, s) <rel="shipping">;
    } where a.company == b.company)");
  ASSERT_TRUE(p.ok()) << p.status();

  auto matches = match::MatchPattern(*p, *g, nullptr);
  ASSERT_TRUE(matches.ok()) << matches.status();
  ASSERT_EQ(matches->size(), 2u);  // (d1,d2,s1) and (d2,d1,s1).

  // Compose the result graph: departments joined by a "shares" edge.
  auto t = algebra::GraphTemplate::Parse(R"(
    graph Out {
      node x <dept=P.a.name>;
      node y <dept=P.b.name>;
      edge e (x, y) <via=P.s.name>;
    })");
  ASSERT_TRUE(t.ok());
  auto out = algebra::Compose(*t, *matches);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->size(), 2u);
  EXPECT_EQ((*out)[0].edge(0).attrs.GetOrNull("via"), Value("fastship"));
}

/// Structural join as algebra (Section 3.4): the co-authorship query as a
/// recursive composition, cross-checked against the FLWR evaluator.
TEST(IntegrationTest, CoauthorshipViaAlgebraMatchesFlwr) {
  auto graphs = motif::GraphsFromProgramSource(R"(
    graph G1 { node v1 <author name="A">; node v2 <author name="B">; };
    graph G2 { node v1 <author name="C">; node v2 <author name="D">;
               node v3 <author name="A">; };
  )");
  ASSERT_TRUE(graphs.ok());
  GraphCollection dblp;
  for (Graph& g : *graphs) dblp.Add(std::move(g));

  // FLWR route.
  exec::DocumentRegistry docs;
  docs.Register("DBLP", dblp);
  exec::Evaluator ev(&docs);
  auto r = ev.RunSource(R"(
    graph P { node v1 <author>; node v2 <author>; };
    C := graph {};
    for P exhaustive in doc("DBLP") let C := graph {
      graph C;
      node P.v1, P.v2;
      edge e1 (P.v1, P.v2);
      unify P.v1, C.v1 where P.v1.name == C.v1.name;
      unify P.v2, C.v2 where P.v2.name == C.v2.name;
    };
  )");
  ASSERT_TRUE(r.ok()) << r.status();
  const Graph* via_flwr = ev.Variable("C");
  ASSERT_NE(via_flwr, nullptr);

  // Manual algebra route: sigma, then fold the composition.
  auto p = algebra::GraphPattern::Parse(
      "graph P { node v1 <author>; node v2 <author>; }");
  ASSERT_TRUE(p.ok());
  auto matches = match::SelectCollection(*p, dblp);
  ASSERT_TRUE(matches.ok());
  auto t = algebra::GraphTemplate::Parse(R"(
    graph {
      graph C;
      node P.v1, P.v2;
      edge e1 (P.v1, P.v2);
      unify P.v1, C.v1 where P.v1.name == C.v1.name;
      unify P.v2, C.v2 where P.v2.name == C.v2.name;
    })");
  ASSERT_TRUE(t.ok());
  Graph acc("C");
  for (const algebra::MatchedGraph& m : *matches) {
    std::unordered_map<std::string, algebra::TemplateParam> params;
    params["C"] = algebra::TemplateParam::Plain(&acc);
    params["P"] = algebra::TemplateParam::Matched(&m);
    auto next = t->Instantiate(params);
    ASSERT_TRUE(next.ok()) << next.status();
    acc = std::move(next).value();
  }
  EXPECT_EQ(acc.NumNodes(), via_flwr->NumNodes());
  EXPECT_EQ(acc.NumEdges(), via_flwr->NumEdges());
}

/// Three-engine agreement on the protein-network clique workload: native
/// optimized pipeline, SQL baseline, and (on a small graph) Datalog.
TEST(IntegrationTest, ThreeEnginesAgreeOnProteinClique) {
  Rng rng(123);
  workload::ProteinNetworkOptions opts;
  opts.num_nodes = 300;
  opts.num_edges = 1200;
  opts.num_labels = 20;
  Graph g = workload::MakeProteinNetwork(opts, &rng);
  match::LabelIndex index = match::LabelIndex::Build(g);

  // Find a clique query with at least one hit.
  auto top = index.LabelsByFrequency();
  std::vector<std::string> labels;
  for (size_t i = 0; i < std::min<size_t>(10, top.size()); ++i) {
    labels.push_back(std::string(index.LabelName(top[i])));
  }
  size_t found = 0;
  for (int trial = 0; trial < 50; ++trial) {
    Graph q = workload::MakeCliqueQuery(3, labels, &rng);
    algebra::GraphPattern p = algebra::GraphPattern::FromGraph(q);
    auto native = match::MatchPattern(p, g, &index);
    ASSERT_TRUE(native.ok()) << native.status();
    rel::SqlGraphDatabase db = rel::SqlGraphDatabase::FromGraph(g);
    auto sql = db.MatchPattern(p);
    ASSERT_TRUE(sql.ok()) << sql.status();
    EXPECT_EQ(native->size(), sql->size()) << "trial " << trial;
    found += native->size();
    if (found > 0) break;
  }
  // Density is high enough that some trial hits.
  EXPECT_GT(found, 0u);
}

/// Recursive pattern selection (extension feature): match paths of
/// unbounded length via derivation alternatives.
TEST(IntegrationTest, RecursivePathPatternSelection) {
  auto program = lang::Parser::ParseProgram(R"(
    graph Path {
      graph Path;
      node v1 <label="X">;
      edge e1 (v1, Path.v1);
      export Path.v2 as v2;
    } | {
      node v1 <label="X">, v2 <label="X">;
      edge e1 (v1, v2);
    };
  )");
  ASSERT_TRUE(program.ok()) << program.status();
  motif::MotifRegistry registry;
  ASSERT_TRUE(registry.RegisterProgram(*program).ok());
  motif::BuildOptions build;
  build.max_depth = 3;
  auto alternatives = algebra::GraphPattern::CreateAll(
      *registry.Find("Path"), &registry, build);
  ASSERT_TRUE(alternatives.ok()) << alternatives.status();
  EXPECT_EQ(alternatives->size(), 4u);  // Paths of 2..5 nodes.

  // Data: a 4-chain of X nodes.
  auto g = motif::GraphFromSource(R"(
    graph G {
      node a <label="X">; node b <label="X">;
      node c <label="X">; node d <label="X">;
      edge (a, b); edge (b, c); edge (c, d);
    })");
  ASSERT_TRUE(g.ok());
  GraphCollection coll;
  coll.Add(*g);
  auto matches = match::SelectCollectionAny(*alternatives, coll);
  ASSERT_TRUE(matches.ok()) << matches.status();
  // 2-paths: 6 (3 edges x 2 dirs); 3-paths: 4; 4-paths: 2; 5-paths: 0.
  EXPECT_EQ(matches->size(), 12u);
}

/// The full Section-1 SQL comparison on the Figure 4.1 example, stats and
/// all: graph-native beats SQL in probe counts even at toy scale.
TEST(IntegrationTest, StatsShowSqlDoesMoreWork) {
  auto g = motif::GraphFromSource(R"(
    graph G {
      node a1 <label="A">; node a2 <label="A">;
      node b1 <label="B">; node b2 <label="B">;
      node c1 <label="C">; node c2 <label="C">;
      edge (a1, b1); edge (a1, c2); edge (b1, c2);
      edge (b1, b2); edge (b2, c2); edge (b2, a2); edge (c1, b1);
    })");
  ASSERT_TRUE(g.ok());
  auto p = algebra::GraphPattern::Parse(R"(
    graph P {
      node u1 <label="A">; node u2 <label="B">; node u3 <label="C">;
      edge (u1, u2); edge (u2, u3); edge (u3, u1);
    })");
  ASSERT_TRUE(p.ok());
  match::LabelIndex index = match::LabelIndex::Build(*g);
  match::PipelineStats native_stats;
  match::PipelineOptions refined;
  refined.refine_level = -1;
  auto native = match::MatchPattern(*p, *g, &index, refined, &native_stats);
  ASSERT_TRUE(native.ok());
  rel::SqlGraphDatabase db = rel::SqlGraphDatabase::FromGraph(*g);
  rel::SqlGraphDatabase::QueryStats sql_stats;
  auto sql = db.MatchPattern(*p, SIZE_MAX, &sql_stats);
  ASSERT_TRUE(sql.ok());
  EXPECT_EQ(native->size(), sql->size());
  // The refined space is a single point: the native search tries 3 nodes.
  EXPECT_LE(native_stats.search.steps, 3u);
  // The SQL plan scans rows and probes indexes far more.
  EXPECT_GT(sql_stats.exec.rows_scanned, native_stats.search.steps);
}

TEST(IntegrationTest, Figure47PaperGraphRoundTrip) {
  // The paper's running tuple example parses, prints, and re-parses.
  auto g = motif::GraphFromSource(R"(
    graph G <inproceedings> {
      node v1 <title="Title1", year=2006>;
      node v2 <author name="A">;
      node v3 <author name="B">;
    })");
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->attrs().tag(), "inproceedings");
  EXPECT_EQ(g->node(g->FindNode("v2")).attrs.tag(), "author");
  EXPECT_EQ(g->node(g->FindNode("v1")).attrs.GetOrNull("year"),
            Value(int64_t{2006}));
}

}  // namespace
}  // namespace graphql
