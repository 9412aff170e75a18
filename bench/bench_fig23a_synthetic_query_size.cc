// Figure 4.23(a): total query time vs query size (4..20) on the 10K-node
// synthetic graph: Optimized vs Baseline vs SQL.
//
// Expected shape (paper): the SQL approach is not scalable to large
// queries (its curve climbs steeply with query size: two joins per edge);
// Optimized stays flat and lowest.

#include <benchmark/benchmark.h>

#include <map>

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

const SyntheticWorkload& Workload() {
  static const SyntheticWorkload* const kW = [] {
    return new SyntheticWorkload(
        MakeSyntheticWorkload(10000, /*build_neighborhoods=*/false, 808));
  }();
  return *kW;
}

const rel::SqlGraphDatabase& SqlDb() {
  static const rel::SqlGraphDatabase* const kDb = [] {
    return new rel::SqlGraphDatabase(
        rel::SqlGraphDatabase::FromGraph(Workload().graph));
  }();
  return *kDb;
}

const std::vector<Graph>& Queries(size_t size) {
  static std::map<size_t, std::vector<Graph>>* cache =
      new std::map<size_t, std::vector<Graph>>();
  auto it = cache->find(size);
  if (it == cache->end()) {
    it = cache
             ->emplace(size, MakeLowHitConnectedQueries(Workload(), size,
                                                        /*count=*/10,
                                                        size * 61))
             .first;
  }
  return it->second;
}

void BM_Fig23a_Total(benchmark::State& state) {
  size_t size = static_cast<size_t>(state.range(0));
  int method = static_cast<int>(state.range(1));
  const SyntheticWorkload& w = Workload();
  const std::vector<Graph>& queries = Queries(size);
  if (queries.empty()) {
    state.SkipWithError("no low-hit queries of this size");
    return;
  }
  if (method == kSql) SqlDb();

  std::vector<algebra::GraphPattern> patterns;
  for (const Graph& q : queries) {
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
          auto m = match::MatchPattern(p, w.graph, &w.index, o);
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
          // Hang guard only, unless the environment governs the query.
          ResourceGovernor guard(GovernorLimits{.max_steps = 200000000});
          if (o.governor == nullptr) o.governor = &guard;
          auto m = match::MatchPattern(p, w.graph, &w.index, o);
          if (m.ok()) total_matches += m->size();
          break;
        }
        case kSql: {
          auto rows = SqlDb().MatchPattern(p, kMaxHits);
          if (rows.ok()) total_matches += rows->size();
          break;
        }
      }
    }
  }
  state.SetLabel(MethodName(method));
  state.counters["queries"] = static_cast<double>(queries.size());
  state.counters["matches"] = static_cast<double>(total_matches);
  state.counters["s_per_query"] = benchmark::Counter(
      static_cast<double>(queries.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

BENCHMARK(BM_Fig23a_Total)
    ->ArgsProduct({{4, 8, 12, 16, 20}, {kOptimized, kBaseline, kSql}})
    ->ArgNames({"qsize", "method"})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace graphql::bench

BENCHMARK_MAIN();
