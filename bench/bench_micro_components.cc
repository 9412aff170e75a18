// Micro-benchmarks of the individual substrates: refinement on a dense
// graph where its B(u, v) tests need augmenting paths, the search on
// patterns ending in a cross-node conjunct, profile containment,
// neighborhood extraction, label-index build, the GraphQL parser, and
// relational index probes. These are regression sentinels rather than
// paper figures.

#include <benchmark/benchmark.h>

#include <memory>
#include <span>
#include <string>

#include "bench_common.h"
#include "lang/parser.h"
#include "match/neighborhood.h"
#include "match/profile.h"
#include "match/refine.h"
#include "reach/reachability.h"

namespace graphql::bench {
namespace {

// Refinement's routine B(u, v) tests end at an empty row or after the
// greedy pass; this lane keeps the rare augmenting-path branch timed. On
// an Erdos-Renyi graph with one label every neighbour is a label candidate
// of every pattern neighbour, so B(u, v) is dense; profile retrieval keeps
// only degree apart, so candidate sets nest and greedy's first pick often
// blocks a later row.
void BM_RefineDense(benchmark::State& state) {
  constexpr size_t kPatternSize = 8;
  static const SyntheticWorkload* const kW = [] {
    auto* w = new SyntheticWorkload;
    Rng rng(13);
    workload::ErdosRenyiOptions options;
    options.num_nodes = 2000;
    options.num_edges = 3000;
    options.num_labels = 1;
    w->graph = workload::MakeErdosRenyi(options, &rng);
    w->index = match::LabelIndex::Build(w->graph);
    return w;
  }();
  std::vector<algebra::GraphPattern> patterns;
  std::vector<std::vector<std::vector<NodeId>>> spaces;
  Rng rng(5);
  match::PipelineOptions prep;
  prep.candidate_mode = match::CandidateMode::kProfile;
  while (patterns.size() < 20) {
    auto q = workload::ExtractConnectedQuery(kW->graph, kPatternSize, &rng);
    if (!q.ok()) continue;
    patterns.push_back(algebra::GraphPattern::FromGraph(*q));
    spaces.push_back(match::RetrieveCandidates(patterns.back(), kW->graph,
                                               &kW->index, prep));
  }
  const GraphSnapshot& snap = *kW->graph.snapshot();
  // Refinement's first level makes one B(u, v) test per candidate of a
  // node with a neighbour: every node of these connected patterns.
  uint64_t candidates = 0;
  for (const auto& space : spaces) {
    for (const std::vector<NodeId>& phi : space) candidates += phi.size();
  }
  uint64_t checks = 0;
  uint64_t removed = 0;
  for (auto _ : state) {
    checks = 0;
    removed = 0;
    for (size_t i = 0; i < patterns.size(); ++i) {
      auto cand = spaces[i];
      match::RefineStats stats;
      match::RefineSearchSpace(patterns[i], snap, kPatternSize, &cand,
                               &stats);
      checks += stats.bipartite_checks;
      removed += stats.removed;
    }
  }
  state.counters["bipartite_checks"] = static_cast<double>(checks);
  state.counters["removed"] = static_cast<double>(removed);
  state.counters["candidates"] = static_cast<double>(candidates);
}
BENCHMARK(BM_RefineDense)->Unit(benchmark::kMicrosecond);

/// `q` as pattern source: nodes n0, n1, ... with their labels, its edges,
/// and `where` as the graph-wide predicate.
std::string PatternSource(const Graph& q, const std::string& where) {
  std::string text = "graph Q { ";
  for (size_t v = 0; v < q.NumNodes(); ++v) {
    text += "node n" + std::to_string(v) + " <label=\"" +
            std::string(q.Label(static_cast<NodeId>(v))) + "\">; ";
  }
  for (size_t e = 0; e < q.NumEdges(); ++e) {
    const Graph::Edge& edge = q.edge(static_cast<EdgeId>(e));
    text += "edge (n" + std::to_string(edge.src) + ", n" +
            std::to_string(edge.dst) + "); ";
  }
  return text + "} where " + where;
}

// The search on extracted patterns over a scored 20k/80k six-label graph,
// each ending in the cross-node conjunct of the match_search workload,
// n0.score + n1.score < 10: the first two of each size 4-6 whose greedy
// order the cost model (Definition 4.13) puts at most kMaxEstimate.
// Profile retrieval, full refinement and the order run once, outside the
// timing; each iteration searches every pattern on one thread. The
// conjunct runs as soon as n0 and n1 are bound: `pred_rejects` counts the
// prefixes it cut and `steps` the candidate tries left.
void BM_SearchResidualPredicate(benchmark::State& state) {
  static const SyntheticWorkload* const kW = [] {
    auto* w = new SyntheticWorkload;
    w->graph = MakeScoredErdosRenyi(/*quick=*/false);
    match::LabelIndexOptions options;
    options.build_neighborhoods = false;
    w->index = match::LabelIndex::Build(w->graph, options);
    return w;
  }();
  struct Search {
    algebra::GraphPattern pattern;
    std::vector<std::vector<NodeId>> candidates;
    std::vector<NodeId> order;
  };
  std::vector<Search> searches;
  Rng rng(17);
  match::PipelineOptions prep;
  prep.candidate_mode = match::CandidateMode::kProfile;
  const GraphSnapshot& snap = *kW->graph.snapshot();
  constexpr double kMaxEstimate = 3e6;
  for (size_t size = 4; size <= 6; ++size) {
    for (int kept = 0, tries = 0; kept < 2 && tries < 50; ++tries) {
      auto q = workload::ExtractConnectedQuery(kW->graph, size, &rng);
      if (!q.ok()) continue;
      auto p = algebra::GraphPattern::Parse(
          PatternSource(*q, "n0.score + n1.score < 10"));
      if (!p.ok()) {
        state.SkipWithError("pattern parse failed");
        return;
      }
      auto cand = match::RetrieveCandidates(*p, kW->graph, &kW->index, prep);
      match::RefineSearchSpace(*p, snap, static_cast<int>(size), &cand);
      std::vector<NodeId> order =
          match::GreedySearchOrder(*p, cand, &kW->index);
      std::vector<size_t> sizes;
      for (const std::vector<NodeId>& phi : cand) sizes.push_back(phi.size());
      if (match::EstimateOrderCost(*p, sizes, order, &kW->index) >
          kMaxEstimate) {
        continue;
      }
      ++kept;
      searches.push_back({std::move(p).value(), std::move(cand),
                          std::move(order)});
    }
  }
  uint64_t steps = 0;
  uint64_t pred_rejects = 0;
  for (auto _ : state) {
    steps = 0;
    pred_rejects = 0;
    for (const Search& s : searches) {
      match::SearchStats stats;
      benchmark::DoNotOptimize(match::SearchMatches(
          s.pattern, kW->graph, s.candidates, s.order, {}, &stats,
          /*num_threads=*/1));
      steps += stats.steps;
      pred_rejects += stats.pred_rejects;
    }
  }
  state.counters["steps"] = static_cast<double>(steps);
  state.counters["pred_rejects"] = static_cast<double>(pred_rejects);
}
BENCHMARK(BM_SearchResidualPredicate)->Unit(benchmark::kMillisecond);

void BM_ProfileContains(benchmark::State& state) {
  const ProteinWorkload& w = GetProteinWorkload();
  std::span<const SymbolId> haystack = w.index.profile(0);
  match::Profile needle(haystack.begin(), haystack.end());
  if (needle.size() > 2) needle.resize(needle.size() / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(match::ProfileSpanContains(haystack, needle));
  }
}
BENCHMARK(BM_ProfileContains);

void BM_BuildProfileRadius1(benchmark::State& state) {
  const Graph& g = GetProteinWorkload().graph;
  std::shared_ptr<const GraphSnapshot> snap = g.snapshot();
  match::NeighborhoodWalker walker(*snap);
  NodeId v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(match::BuildProfile(&walker, v, 1));
    v = static_cast<NodeId>((v + 1) % g.NumNodes());
  }
}
BENCHMARK(BM_BuildProfileRadius1);

void BM_ExtractNeighborhood(benchmark::State& state) {
  const Graph& g = GetProteinWorkload().graph;
  std::shared_ptr<const GraphSnapshot> snap = g.snapshot();
  match::NeighborhoodWalker walker(*snap);
  NodeId v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(match::ExtractNeighborhood(&walker, v, 1));
    v = static_cast<NodeId>((v + 1) % g.NumNodes());
  }
}
BENCHMARK(BM_ExtractNeighborhood);

void BM_LabelIndexBuild(benchmark::State& state) {
  const Graph& g = GetProteinWorkload().graph;
  match::LabelIndexOptions options;
  options.build_neighborhoods = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(match::LabelIndex::Build(g, options));
  }
  state.SetLabel(options.build_neighborhoods ? "with_neighborhoods"
                                             : "profiles_only");
}
BENCHMARK(BM_LabelIndexBuild)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_ParseCoauthorshipQuery(benchmark::State& state) {
  const char* query = R"(
    graph P { node v1 <author>; node v2 <author>; }
      where P.booktitle = "SIGMOD";
    C := graph {};
    for P exhaustive in doc("DBLP") let C := graph {
      graph C;
      node P.v1, P.v2;
      edge e1 (P.v1, P.v2);
      unify P.v1, C.v1 where P.v1.name = C.v1.name;
      unify P.v2, C.v2 where P.v2.name = C.v2.name;
    };
  )";
  for (auto _ : state) {
    benchmark::DoNotOptimize(lang::Parser::ParseProgram(query));
  }
}
BENCHMARK(BM_ParseCoauthorshipQuery);

void BM_SqlIndexProbe(benchmark::State& state) {
  static const rel::SqlGraphDatabase* const kDb = [] {
    return new rel::SqlGraphDatabase(
        rel::SqlGraphDatabase::FromGraph(GetProteinWorkload().graph));
  }();
  const Graph& g = GetProteinWorkload().graph;
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u <label=\"" +
      std::string(g.Label(0)) + "\">; node v; edge (u, v); }");
  if (!p.ok()) {
    state.SkipWithError("pattern parse failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(kDb->MatchPattern(*p, 100));
  }
}
BENCHMARK(BM_SqlIndexProbe)->Unit(benchmark::kMicrosecond);

void BM_AttrIndexRangeRetrieval(benchmark::State& state) {
  // Range-constrained wildcard node: B+-tree retrieval vs full scan.
  bool use_index = state.range(0) != 0;
  static const Graph* const kG = [] {
    Rng rng(321);
    Graph* g = new Graph("attrs");
    for (int i = 0; i < 20000; ++i) {
      AttrTuple attrs;
      attrs.Set("weight", Value(static_cast<int64_t>(rng.NextBounded(1000))));
      g->AddNode("", std::move(attrs));
    }
    for (int i = 0; i < 60000; ++i) {
      g->AddEdge(static_cast<NodeId>(rng.NextBounded(20000)),
                 static_cast<NodeId>(rng.NextBounded(20000)));
    }
    return g;
  }();
  static const match::LabelIndex* const kWithAttr = [] {
    match::LabelIndexOptions o;
    o.build_profiles = false;
    o.build_neighborhoods = false;
    o.indexed_attributes = {"weight"};
    return new match::LabelIndex(match::LabelIndex::Build(*kG, o));
  }();
  static const match::LabelIndex* const kPlain = [] {
    match::LabelIndexOptions o;
    o.build_profiles = false;
    o.build_neighborhoods = false;
    return new match::LabelIndex(match::LabelIndex::Build(*kG, o));
  }();
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u where weight >= 990; node v; edge (u, v); }");
  if (!p.ok()) {
    state.SkipWithError("pattern parse failed");
    return;
  }
  match::PipelineOptions options;
  options.candidate_mode = match::CandidateMode::kLabelOnly;
  options.refine_level = 0;
  const match::LabelIndex* index = use_index ? kWithAttr : kPlain;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        match::RetrieveCandidates(*p, *kG, index, options));
  }
  state.SetLabel(use_index ? "btree_range" : "full_scan");
}
BENCHMARK(BM_AttrIndexRangeRetrieval)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("indexed")
    ->Unit(benchmark::kMicrosecond);

Graph DirectedWorkload() {
  Rng rng(77);
  Graph g("d", /*directed=*/true);
  size_t n = 5000;
  for (size_t i = 0; i < n; ++i) g.AddNode();
  for (size_t i = 0; i < 4 * n; ++i) {
    g.AddEdge(static_cast<NodeId>(rng.NextBounded(n)),
              static_cast<NodeId>(rng.NextBounded(n)));
  }
  return g;
}

void BM_ReachabilityBuild(benchmark::State& state) {
  static const Graph* const kG = new Graph(DirectedWorkload());
  for (auto _ : state) {
    auto index = reach::ReachabilityIndex::Build(*kG);
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_ReachabilityBuild)->Unit(benchmark::kMillisecond);

void BM_ReachabilityQuery(benchmark::State& state) {
  static const Graph* const kG = new Graph(DirectedWorkload());
  static const reach::ReachabilityIndex* const kIndex = [] {
    auto r = reach::ReachabilityIndex::Build(*kG);
    return new reach::ReachabilityIndex(std::move(r).value());
  }();
  Rng rng(5);
  for (auto _ : state) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(kG->NumNodes()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(kG->NumNodes()));
    benchmark::DoNotOptimize(kIndex->Reachable(u, v));
  }
}
BENCHMARK(BM_ReachabilityQuery);

void BM_ReachabilityBfsQuery(benchmark::State& state) {
  static const Graph* const kG = new Graph(DirectedWorkload());
  Rng rng(5);
  for (auto _ : state) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(kG->NumNodes()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(kG->NumNodes()));
    benchmark::DoNotOptimize(reach::BfsReachable(*kG, u, v));
  }
}
BENCHMARK(BM_ReachabilityBfsQuery)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace graphql::bench

BENCHMARK_MAIN();
