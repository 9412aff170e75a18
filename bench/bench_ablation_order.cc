// Ablation: search-order selection (Section 4.4). Compares, on the same
// refined search space:
//   greedy cost-based order (with edge probabilities),
//   greedy with constant reduction factor,
//   declaration order,
//   pathological order (greedy reversed).
//
// DESIGN.md ablation item 3.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_common.h"

namespace graphql::bench {
namespace {

enum OrderKind { kGreedyProbs = 0, kGreedyConst, kDeclaration, kReversed };

const char* OrderName(int kind) {
  switch (kind) {
    case kGreedyProbs:
      return "greedy_edge_probs";
    case kGreedyConst:
      return "greedy_const_gamma";
    case kDeclaration:
      return "declaration";
    case kReversed:
      return "greedy_reversed";
  }
  return "?";
}

struct Prepared {
  std::vector<algebra::GraphPattern> patterns;
  std::vector<std::vector<std::vector<NodeId>>> spaces;
};

const SyntheticWorkload& Workload() {
  static const SyntheticWorkload* const kW = [] {
    return new SyntheticWorkload(
        MakeSyntheticWorkload(10000, /*build_neighborhoods=*/false, 4321));
  }();
  return *kW;
}

const Prepared& Prep() {
  static const Prepared* const kPrep = [] {
    auto* p = new Prepared();
    const SyntheticWorkload& w = Workload();
    std::vector<Graph> queries =
        MakeLowHitConnectedQueries(w, /*size=*/8, /*count=*/15, 99);
    match::PipelineOptions prep_opts;
    prep_opts.candidate_mode = match::CandidateMode::kProfile;
    for (const Graph& q : queries) {
      p->patterns.push_back(algebra::GraphPattern::FromGraph(q));
      auto cand = match::RetrieveCandidates(p->patterns.back(), w.graph,
                                            &w.index, prep_opts);
      match::RefineSearchSpace(p->patterns.back(), *w.graph.snapshot(), 8,
                               &cand);
      p->spaces.push_back(std::move(cand));
    }
    return p;
  }();
  return *kPrep;
}

void BM_OrderKind(benchmark::State& state) {
  int kind = static_cast<int>(state.range(0));
  const SyntheticWorkload& w = Workload();
  const Prepared& prep = Prep();
  match::MatchOptions mopts;
  mopts.max_matches = kMaxHits;

  uint64_t steps = 0;
  for (auto _ : state) {
    steps = 0;
    for (size_t i = 0; i < prep.patterns.size(); ++i) {
      const algebra::GraphPattern& p = prep.patterns[i];
      std::vector<NodeId> order;
      switch (kind) {
        case kGreedyProbs:
          order = match::GreedySearchOrder(p, prep.spaces[i], &w.index);
          break;
        case kGreedyConst: {
          match::OrderOptions oo;
          oo.use_edge_probs = false;
          order = match::GreedySearchOrder(p, prep.spaces[i], nullptr, oo);
          break;
        }
        case kDeclaration:
          order = match::DeclarationOrder(p);
          break;
        case kReversed:
          order = match::GreedySearchOrder(p, prep.spaces[i], &w.index);
          std::reverse(order.begin(), order.end());
          break;
      }
      match::SearchStats stats;
      auto m =
          match::SearchMatches(p, w.graph, prep.spaces[i], order, mopts,
                               &stats);
      benchmark::DoNotOptimize(m);
      steps += stats.steps;
    }
  }
  state.SetLabel(OrderName(kind));
  state.counters["search_steps"] = static_cast<double>(steps);
}
BENCHMARK(BM_OrderKind)
    ->DenseRange(0, 3)
    ->ArgName("order")
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace graphql::bench

BENCHMARK_MAIN();
