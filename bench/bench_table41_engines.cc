// Table 4.1: comparison of query languages/engines. The table itself is
// qualitative (basic unit / query style / semistructured); this benchmark
// makes it executable by running the SAME logical query — the Figure 4.1
// triangle — through the three data models implemented in this repository:
//
//   graphs-at-a-time  (GraphQL algebra + graph-native access methods),
//   tuples-at-a-time  (SQL: the V/E relational translation),
//   logic programming (Datalog: the facts-and-rules translation),
//
// and reporting their relative costs. The qualitative table is printed on
// startup for reference.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.h"
#include "datalog/evaluator.h"
#include "datalog/translator.h"
#include "motif/deriver.h"

namespace graphql::bench {
namespace {

struct Fixture {
  Graph graph;
  match::LabelIndex index;
  std::unique_ptr<rel::SqlGraphDatabase> sql;
  GraphCollection collection;
  std::unique_ptr<algebra::GraphPattern> pattern;
};

const Fixture& GetFixture() {
  static const Fixture* const kFixture = [] {
    auto* f = new Fixture();
    Rng rng(41);
    workload::ProteinNetworkOptions opts;
    opts.num_nodes = 400;  // Datalog's naive joins need a modest graph.
    opts.num_edges = 1600;
    opts.num_labels = 30;
    f->graph = workload::MakeProteinNetwork(opts, &rng);
    f->index = match::LabelIndex::Build(f->graph);
    f->sql = std::make_unique<rel::SqlGraphDatabase>(
        rel::SqlGraphDatabase::FromGraph(f->graph));
    f->collection.Add(f->graph);

    // A triangle over the three most frequent labels.
    auto top = f->index.LabelsByFrequency();
    Graph q("P");
    for (int i = 0; i < 3; ++i) {
      AttrTuple attrs;
      attrs.Set("label", Value(std::string(f->index.LabelName(top[i]))));
      q.AddNode("u" + std::to_string(i), attrs);
    }
    q.AddEdge(0, 1);
    q.AddEdge(1, 2);
    q.AddEdge(2, 0);
    f->pattern = std::make_unique<algebra::GraphPattern>(
        algebra::GraphPattern::FromGraph(q));
    return f;
  }();
  return *kFixture;
}

void BM_Table41_GraphQL(benchmark::State& state) {
  const Fixture& f = GetFixture();
  size_t matches = 0;
  for (auto _ : state) {
    match::PipelineOptions o;
    o.refine_level = -1;  // The paper's setting: always refine.
    o.match.max_matches = kMaxHits;
    GovernBenchQuery(&o);
    auto m = match::MatchPattern(*f.pattern, f.graph, &f.index, o);
    matches = m.ok() ? m->size() : 0;
    benchmark::DoNotOptimize(m);
  }
  state.SetLabel("graphs-at-a-time (GraphQL)");
  state.counters["matches"] = static_cast<double>(matches);
}
BENCHMARK(BM_Table41_GraphQL)->Unit(benchmark::kMillisecond);

void BM_Table41_Sql(benchmark::State& state) {
  const Fixture& f = GetFixture();
  size_t matches = 0;
  for (auto _ : state) {
    auto rows = f.sql->MatchPattern(*f.pattern, kMaxHits);
    matches = rows.ok() ? rows->size() : 0;
    benchmark::DoNotOptimize(rows);
  }
  state.SetLabel("tuples-at-a-time (SQL over V/E)");
  state.counters["matches"] = static_cast<double>(matches);
}
BENCHMARK(BM_Table41_Sql)->Unit(benchmark::kMillisecond);

void BM_Table41_Datalog(benchmark::State& state) {
  const Fixture& f = GetFixture();
  // Fact translation happens once (it is data loading, not querying).
  static const datalog::FactDatabase* const kEdb = [] {
    auto* edb = new datalog::FactDatabase(
        datalog::CollectionToFacts(GetFixture().collection));
    return edb;
  }();
  size_t matches = 0;
  for (auto _ : state) {
    auto rule = datalog::PatternToRule(*f.pattern, "match");
    if (!rule.ok()) {
      state.SkipWithError("rule translation failed");
      return;
    }
    auto facts = datalog::Query({*rule}, *kEdb, "match");
    matches = facts.ok() ? facts->size() : 0;
    benchmark::DoNotOptimize(facts);
  }
  state.SetLabel("logic programming (Datalog)");
  state.counters["matches"] = static_cast<double>(matches);
}
BENCHMARK(BM_Table41_Datalog)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace graphql::bench

int main(int argc, char** argv) {
  std::printf(
      "Table 4.1 (qualitative comparison, reproduced from the paper):\n"
      "  Language   | Basic unit   | Query style  | Semistructured\n"
      "  -----------+--------------+--------------+---------------\n"
      "  GraphQL    | graphs       | set-oriented | yes\n"
      "  SQL        | tuples       | set-oriented | no\n"
      "  TAX        | trees        | set-oriented | yes\n"
      "  GraphLog   | nodes/edges  | logic prog.  | -\n"
      "  OODB       | nodes/edges  | navigational | no\n"
      "\n"
      "Executable comparison below: the Figure 4.1 triangle query through\n"
      "the three engines implemented here.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
