// Figure 4.23(b): total query time vs graph size (10K..320K nodes, m = 5n)
// at query size 4: Optimized vs Baseline vs SQL.
//
// Expected shape (paper): with small queries, all approaches scale to
// large graphs (candidate sets grow linearly), but Optimized stays lowest
// and SQL highest throughout.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_common.h"

namespace graphql::bench {
namespace {

enum Method { kOptimized = 0, kBaseline, kSql };

const char* MethodName(int m) {
  switch (m) {
    case kOptimized:
      return "optimized";
    case kBaseline:
      return "baseline";
    case kSql:
      return "sql";
  }
  return "?";
}

struct SizedWorkload {
  SyntheticWorkload base;
  std::unique_ptr<rel::SqlGraphDatabase> sql;
  std::vector<Graph> queries;
};

const SizedWorkload& WorkloadForSize(size_t n) {
  static std::map<size_t, std::unique_ptr<SizedWorkload>>* cache =
      new std::map<size_t, std::unique_ptr<SizedWorkload>>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    auto w = std::make_unique<SizedWorkload>();
    w->base = MakeSyntheticWorkload(n, /*build_neighborhoods=*/false,
                                    9000 + n);
    w->sql = std::make_unique<rel::SqlGraphDatabase>(
        rel::SqlGraphDatabase::FromGraph(w->base.graph));
    w->queries = MakeLowHitConnectedQueries(w->base, /*size=*/4,
                                            /*count=*/10, n * 7);
    it = cache->emplace(n, std::move(w)).first;
  }
  return *it->second;
}

void BM_Fig23b_Total(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0)) * 1000;
  int method = static_cast<int>(state.range(1));
  const SizedWorkload& w = WorkloadForSize(n);
  if (w.queries.empty()) {
    state.SkipWithError("no low-hit queries");
    return;
  }
  std::vector<algebra::GraphPattern> patterns;
  for (const Graph& q : w.queries) {
    patterns.push_back(algebra::GraphPattern::FromGraph(q));
  }

  size_t total_matches = 0;
  for (auto _ : state) {
    total_matches = 0;
    for (algebra::GraphPattern& p : patterns) {
      switch (method) {
        case kOptimized: {
          match::PipelineOptions o;
          o.refine_level = -1;  // The paper's setting: always refine.
          o.match.max_matches = kMaxHits;
          GovernBenchQuery(&o);
          auto m = match::MatchPattern(p, w.base.graph, &w.base.index, o);
          if (m.ok()) total_matches += m->size();
          break;
        }
        case kBaseline: {
          match::PipelineOptions o;
          o.candidate_mode = match::CandidateMode::kLabelOnly;
          o.refine_level = 0;
          o.optimize_order = false;
          o.match.max_matches = kMaxHits;
          GovernBenchQuery(&o);
          auto m = match::MatchPattern(p, w.base.graph, &w.base.index, o);
          if (m.ok()) total_matches += m->size();
          break;
        }
        case kSql: {
          auto rows = w.sql->MatchPattern(p, kMaxHits);
          if (rows.ok()) total_matches += rows->size();
          break;
        }
      }
    }
  }
  state.SetLabel(MethodName(method));
  state.counters["nodes"] = static_cast<double>(n);
  state.counters["queries"] = static_cast<double>(w.queries.size());
  state.counters["matches"] = static_cast<double>(total_matches);
  state.counters["s_per_query"] = benchmark::Counter(
      static_cast<double>(w.queries.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

// Graph sizes in thousands of nodes: 10K, 20K, 40K, 80K, 160K, 320K.
BENCHMARK(BM_Fig23b_Total)
    ->ArgsProduct({{10, 20, 40, 80, 160, 320}, {kOptimized, kBaseline, kSql}})
    ->ArgNames({"kilo_nodes", "method"})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace graphql::bench

BENCHMARK_MAIN();
