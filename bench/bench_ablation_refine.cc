// Ablation: the global refinement step (Algorithm 4.2).
//   - refinement level sweep (0 = off .. query size): space vs cost;
//   - the dirty-pair marking optimization on/off: bipartite-matching count
//     and wall time for the same final space.
//
// DESIGN.md ablation items 2 and 4.

#include <benchmark/benchmark.h>

#include <map>

#include "bench_common.h"

namespace graphql::bench {
namespace {

const std::vector<Graph>& Queries() {
  static const std::vector<Graph>* const kQ = [] {
    ClassifiedQueries q = MakeClassifiedCliqueQueries(
        4, /*want_each=*/20, /*max_attempts=*/400, /*seed=*/11);
    return new std::vector<Graph>(std::move(q.low_hits));
  }();
  return *kQ;
}

/// The B(u, v) tests refinement's first level makes over `spaces`: one
/// per candidate of a node with a neighbour, here every node of the
/// connected clique queries.
uint64_t Candidates(
    const std::vector<std::vector<std::vector<NodeId>>>& spaces) {
  uint64_t n = 0;
  for (const auto& space : spaces) {
    for (const std::vector<NodeId>& phi : space) n += phi.size();
  }
  return n;
}

void BM_RefineLevelSweep(benchmark::State& state) {
  int level = static_cast<int>(state.range(0));
  const ProteinWorkload& w = GetProteinWorkload();
  const std::vector<Graph>& queries = Queries();
  std::vector<algebra::GraphPattern> patterns;
  std::vector<std::vector<std::vector<NodeId>>> spaces;
  match::PipelineOptions prep;
  prep.candidate_mode = match::CandidateMode::kProfile;
  for (const Graph& q : queries) {
    patterns.push_back(algebra::GraphPattern::FromGraph(q));
    spaces.push_back(
        match::RetrieveCandidates(patterns.back(), w.graph, &w.index, prep));
  }
  double space_sum_log = 0;
  uint64_t checks = 0;
  for (auto _ : state) {
    space_sum_log = 0;
    checks = 0;
    for (size_t i = 0; i < patterns.size(); ++i) {
      auto cand = spaces[i];
      match::RefineStats stats;
      match::RefineSearchSpace(patterns[i], *w.graph.snapshot(), level, &cand,
                               &stats);
      checks += stats.bipartite_checks;
      std::vector<size_t> sizes;
      for (const auto& c : cand) sizes.push_back(c.size());
      double space = match::PipelineStats::Space(sizes);
      space_sum_log += space > 0 ? std::log10(space) : 0;
    }
  }
  state.counters["level"] = level;
  state.counters["bipartite_checks"] = static_cast<double>(checks);
  state.counters["candidates"] = static_cast<double>(Candidates(spaces));
  state.counters["geomean_space"] =
      std::pow(10.0, space_sum_log / static_cast<double>(patterns.size()));
}
BENCHMARK(BM_RefineLevelSweep)
    ->DenseRange(0, 4)
    ->ArgName("level")
    ->Unit(benchmark::kMillisecond);

void BM_RefineMarking(benchmark::State& state) {
  bool use_marking = state.range(0) != 0;
  const ProteinWorkload& w = GetProteinWorkload();
  const std::vector<Graph>& queries = Queries();
  std::vector<algebra::GraphPattern> patterns;
  std::vector<std::vector<std::vector<NodeId>>> spaces;
  match::PipelineOptions prep;
  prep.candidate_mode = match::CandidateMode::kProfile;
  for (const Graph& q : queries) {
    patterns.push_back(algebra::GraphPattern::FromGraph(q));
    spaces.push_back(
        match::RetrieveCandidates(patterns.back(), w.graph, &w.index, prep));
  }
  uint64_t checks = 0;
  for (auto _ : state) {
    checks = 0;
    for (size_t i = 0; i < patterns.size(); ++i) {
      auto cand = spaces[i];
      match::RefineStats stats;
      match::RefineSearchSpace(patterns[i], *w.graph.snapshot(), /*level=*/4,
                               &cand, &stats, use_marking);
      checks += stats.bipartite_checks;
    }
  }
  state.SetLabel(use_marking ? "marking" : "no_marking");
  state.counters["bipartite_checks"] = static_cast<double>(checks);
  state.counters["candidates"] = static_cast<double>(Candidates(spaces));
}
BENCHMARK(BM_RefineMarking)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("marking")
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace graphql::bench

BENCHMARK_MAIN();
