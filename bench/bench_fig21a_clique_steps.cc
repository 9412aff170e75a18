// Figure 4.21(a): average per-query processing time of the individual
// selection steps vs clique size (protein network, low-hit queries):
//   retrieve-by-profiles, retrieve-by-subgraphs, refine search space,
//   search with optimized order, search without optimized order.
//
// Expected shape: subgraph retrieval has by far the largest overhead;
// profile retrieval is cheap; refinement is moderate; optimized-order
// search is no slower (usually faster) than declaration order.

#include <benchmark/benchmark.h>

#include <map>

#include "bench_common.h"

namespace graphql::bench {
namespace {

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

const std::vector<Graph>& LowHitQueries(size_t size) {
  static std::map<size_t, std::vector<Graph>>* cache =
      new std::map<size_t, std::vector<Graph>>();
  auto it = cache->find(size);
  if (it == cache->end()) {
    ClassifiedQueries q = MakeClassifiedCliqueQueries(
        size, /*want_each=*/20, /*max_attempts=*/500, /*seed=*/size * 313);
    it = cache->emplace(size, std::move(q.low_hits)).first;
  }
  return it->second;
}

void BM_Fig21a_Step(benchmark::State& state) {
  size_t size = static_cast<size_t>(state.range(0));
  int step = static_cast<int>(state.range(1));
  const std::vector<Graph>& queries = LowHitQueries(size);
  const ProteinWorkload& w = GetProteinWorkload();
  if (queries.empty()) {
    state.SkipWithError("no low-hit queries of this size");
    return;
  }

  // Patterns and (for the search steps) refined candidate spaces are
  // prepared outside the timed region, mirroring Figure 4.21(a)'s
  // decomposition into independent step timings.
  std::vector<algebra::GraphPattern> patterns;
  for (const Graph& q : queries) {
    patterns.push_back(algebra::GraphPattern::FromGraph(q));
  }
  std::vector<std::vector<std::vector<NodeId>>> profile_spaces;
  std::vector<std::vector<std::vector<NodeId>>> refined_spaces;
  match::PipelineOptions options;
  options.candidate_mode = match::CandidateMode::kProfile;
  for (algebra::GraphPattern& p : patterns) {
    auto cand = match::RetrieveCandidates(p, w.graph, &w.index, options);
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
          auto cand = match::RetrieveCandidates(p, w.graph, &w.index, o);
          benchmark::DoNotOptimize(cand);
          break;
        }
        case kRetrieveSubgraphs: {
          match::PipelineOptions o;
          o.candidate_mode = match::CandidateMode::kNeighborhood;
          auto cand = match::RetrieveCandidates(p, w.graph, &w.index, o);
          benchmark::DoNotOptimize(cand);
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
          auto m = match::SearchMatches(p, w.graph, refined_spaces[i], order,
                                        mopts);
          benchmark::DoNotOptimize(m);
          break;
        }
        case kSearchDeclOrder: {
          auto m = match::SearchMatches(p, w.graph, refined_spaces[i],
                                        match::DeclarationOrder(p), mopts);
          benchmark::DoNotOptimize(m);
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

BENCHMARK(BM_Fig21a_Step)
    ->ArgsProduct({{2, 3, 4, 5, 6, 7},
                   {kRetrieveProfiles, kRetrieveSubgraphs, kRefine,
                    kSearchOptOrder, kSearchDeclOrder}})
    ->ArgNames({"clique", "step"})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace graphql::bench

BENCHMARK_MAIN();
