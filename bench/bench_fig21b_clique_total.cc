// Figure 4.21(b): total query processing time vs clique size on the
// protein network (low-hit queries), comparing:
//   Optimized  — retrieval by profiles + refinement + optimized order,
//   Baseline   — retrieval by node attributes + search in declaration
//                order on the unreduced space,
//   SQL        — the translated multi-way join over V/E with indexes.
//
// Expected shape (paper): Optimized < Baseline << SQL, with the SQL curve
// growing super-exponentially in clique size (a size-k clique costs 2
// joins per edge = k(k-1) joins) and the gap reaching orders of magnitude.

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

const std::vector<Graph>& LowHitQueries(size_t size) {
  static std::map<size_t, std::vector<Graph>>* cache =
      new std::map<size_t, std::vector<Graph>>();
  auto it = cache->find(size);
  if (it == cache->end()) {
    ClassifiedQueries q = MakeClassifiedCliqueQueries(
        size, /*want_each=*/15, /*max_attempts=*/500, /*seed=*/size * 977);
    it = cache->emplace(size, std::move(q.low_hits)).first;
  }
  return it->second;
}

const rel::SqlGraphDatabase& SqlDb() {
  static const rel::SqlGraphDatabase* const kDb = [] {
    return new rel::SqlGraphDatabase(
        rel::SqlGraphDatabase::FromGraph(GetProteinWorkload().graph));
  }();
  return *kDb;
}

void BM_Fig21b_Total(benchmark::State& state) {
  size_t size = static_cast<size_t>(state.range(0));
  int method = static_cast<int>(state.range(1));
  const std::vector<Graph>& queries = LowHitQueries(size);
  const ProteinWorkload& w = GetProteinWorkload();
  if (queries.empty()) {
    state.SkipWithError("no low-hit queries of this size");
    return;
  }
  if (method == kSql) SqlDb();  // Load outside the timed region.

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
          match::PipelineOptions o;  // Profile + refine + order.
          o.refine_level = -1;         // The paper's setting: always refine.
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

BENCHMARK(BM_Fig21b_Total)
    ->ArgsProduct({{2, 3, 4, 5, 6, 7}, {kOptimized, kBaseline, kSql}})
    ->ArgNames({"clique", "method"})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace graphql::bench

BENCHMARK_MAIN();
