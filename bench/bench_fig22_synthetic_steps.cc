// Figure 4.22: synthetic Erdos-Renyi workload (n = 10K, m = 5n, 100 Zipf
// labels), random connected queries of size 4..20 with low hits.
//   (a) search-space reduction ratios per retrieval/refinement strategy;
//   (b) per-query time of each individual step.
//
// Expected shape (paper): unlike cliques, GLOBAL pruning (refinement)
// produces the smallest space here, beating even full neighborhood
// subgraphs; profile retrieval remains the cheapest step.

#include <benchmark/benchmark.h>

#include <map>

#include "bench_common.h"

namespace graphql::bench {
namespace {

const SyntheticWorkload& Workload() {
  static const SyntheticWorkload* const kW = [] {
    return new SyntheticWorkload(
        MakeSyntheticWorkload(10000, /*build_neighborhoods=*/true, 555));
  }();
  return *kW;
}

const std::vector<Graph>& Queries(size_t size) {
  static std::map<size_t, std::vector<Graph>>* cache =
      new std::map<size_t, std::vector<Graph>>();
  auto it = cache->find(size);
  if (it == cache->end()) {
    it = cache
             ->emplace(size, MakeLowHitConnectedQueries(Workload(), size,
                                                        /*count=*/15,
                                                        size * 31))
             .first;
  }
  return it->second;
}

void BM_Fig22a_Space(benchmark::State& state) {
  size_t size = static_cast<size_t>(state.range(0));
  const SyntheticWorkload& w = Workload();
  const std::vector<Graph>& queries = Queries(size);
  if (queries.empty()) {
    state.SkipWithError("no low-hit queries of this size");
    return;
  }
  std::vector<double> r_prof;
  std::vector<double> r_sub;
  std::vector<double> r_ref;
  for (auto _ : state) {
    r_prof.clear();
    r_sub.clear();
    r_ref.clear();
    for (const Graph& q : queries) {
      algebra::GraphPattern p = algebra::GraphPattern::FromGraph(q);
      match::PipelineOptions o;
      match::PipelineStats stats;
      o.candidate_mode = match::CandidateMode::kProfile;
      match::RetrieveCandidates(p, w.graph, &w.index, o, &stats);
      double space0 = stats.SpaceAttr();
      if (space0 <= 0) continue;
      r_prof.push_back(stats.SpaceRetrieved() / space0);
      o.candidate_mode = match::CandidateMode::kNeighborhood;
      match::RetrieveCandidates(p, w.graph, &w.index, o, &stats);
      r_sub.push_back(stats.SpaceRetrieved() / space0);
      o.candidate_mode = match::CandidateMode::kProfile;
      o.refine_level = static_cast<int>(size);
      o.match.max_matches = kMaxHits;
      match::PipelineStats full;
      auto m = match::MatchPattern(p, w.graph, &w.index, o, &full);
      benchmark::DoNotOptimize(m);
      r_ref.push_back(full.SpaceRefined() / space0);
    }
  }
  state.counters["queries"] = static_cast<double>(queries.size());
  state.counters["log10_ratio_profiles"] = MeanLog10(r_prof);
  state.counters["log10_ratio_subgraphs"] = MeanLog10(r_sub);
  state.counters["log10_ratio_refined"] = MeanLog10(r_ref);
}

BENCHMARK(BM_Fig22a_Space)
    ->Arg(4)
    ->Arg(8)
    ->Arg(12)
    ->Arg(16)
    ->Arg(20)
    ->ArgName("qsize")
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

enum Step {
  kRetrieveProfiles = 0,
  kRetrieveSubgraphs,
  kRefine,
  kSearchOptOrder,
  kSearchDeclOrder,
};

const char* StepName(int step) {
  switch (step) {
    case kRetrieveProfiles:
      return "retrieve_profiles";
    case kRetrieveSubgraphs:
      return "retrieve_subgraphs";
    case kRefine:
      return "refine";
    case kSearchOptOrder:
      return "search_opt_order";
    case kSearchDeclOrder:
      return "search_decl_order";
  }
  return "?";
}

void BM_Fig22b_Steps(benchmark::State& state) {
  size_t size = static_cast<size_t>(state.range(0));
  int step = static_cast<int>(state.range(1));
  const SyntheticWorkload& w = Workload();
  const std::vector<Graph>& queries = Queries(size);
  if (queries.empty()) {
    state.SkipWithError("no low-hit queries of this size");
    return;
  }
  std::vector<algebra::GraphPattern> patterns;
  for (const Graph& q : queries) {
    patterns.push_back(algebra::GraphPattern::FromGraph(q));
  }
  std::vector<std::vector<std::vector<NodeId>>> profile_spaces;
  std::vector<std::vector<std::vector<NodeId>>> refined_spaces;
  match::PipelineOptions prep;
  prep.candidate_mode = match::CandidateMode::kProfile;
  for (algebra::GraphPattern& p : patterns) {
    auto cand = match::RetrieveCandidates(p, w.graph, &w.index, prep);
    profile_spaces.push_back(cand);
    match::RefineSearchSpace(p, *w.graph.snapshot(),
                             static_cast<int>(size), &cand);
    refined_spaces.push_back(std::move(cand));
  }
  match::MatchOptions mopts;
  mopts.max_matches = kMaxHits;

  for (auto _ : state) {
    for (size_t i = 0; i < patterns.size(); ++i) {
      algebra::GraphPattern& p = patterns[i];
      switch (step) {
        case kRetrieveProfiles: {
          match::PipelineOptions o;
          o.candidate_mode = match::CandidateMode::kProfile;
          benchmark::DoNotOptimize(
              match::RetrieveCandidates(p, w.graph, &w.index, o));
          break;
        }
        case kRetrieveSubgraphs: {
          match::PipelineOptions o;
          o.candidate_mode = match::CandidateMode::kNeighborhood;
          benchmark::DoNotOptimize(
              match::RetrieveCandidates(p, w.graph, &w.index, o));
          break;
        }
        case kRefine: {
          auto cand = profile_spaces[i];
          match::RefineSearchSpace(p, *w.graph.snapshot(),
                                   static_cast<int>(size), &cand);
          benchmark::DoNotOptimize(cand);
          break;
        }
        case kSearchOptOrder: {
          auto order =
              match::GreedySearchOrder(p, refined_spaces[i], &w.index);
          benchmark::DoNotOptimize(match::SearchMatches(
              p, w.graph, refined_spaces[i], order, mopts));
          break;
        }
        case kSearchDeclOrder: {
          benchmark::DoNotOptimize(
              match::SearchMatches(p, w.graph, refined_spaces[i],
                                   match::DeclarationOrder(p), mopts));
          break;
        }
      }
    }
  }
  state.SetLabel(StepName(step));
  state.counters["queries"] = static_cast<double>(queries.size());
  state.counters["s_per_query"] = benchmark::Counter(
      static_cast<double>(queries.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

BENCHMARK(BM_Fig22b_Steps)
    ->ArgsProduct({{4, 8, 12, 16, 20},
                   {kRetrieveProfiles, kRetrieveSubgraphs, kRefine,
                    kSearchOptOrder, kSearchDeclOrder}})
    ->ArgNames({"qsize", "step"})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace graphql::bench

BENCHMARK_MAIN();
