// Differential tests for the adjacency-driven search: SearchMatches at
// every thread count against oracle::ScanSearch (match_oracle.h), the
// plain Phi(u) scan of Algorithm 4.1 over the mutable Graph. Inputs cover
// Erdos-Renyi and protein-style graphs, directed and undirected, with
// parallel edges, self-loops, tagged and predicated edges, residual
// cross-node conjuncts (out of search order, erroring, reading an edge
// with or without constraints of its own, naming no node),
// attribute-range (B+-tree) retrieval, refined and
// unrefined spaces, and declaration and greedy orders.
//  - at 0, 1, 3 and 4 threads: the match list (content and order) or
//    error status of the oracle evaluating every conjunct on complete
//    embeddings, and the steps, backtracks and pred_rejects of the oracle
//    placing each conjunct where its last node is bound; placed
//    conjuncts reject prefixes, an error on prefixes that never complete
//    leaves the search OK, and one on a prefix that completes is raised;
//  - at 0, 1 and 4 threads: the same partial list, trip, trip flags and
//    governor steps and peak memory under a governor step budget, a
//    memory budget and search@N fault injection (steps and backtracks too
//    on one worker), and at 4 threads the workers' match bytes and tries
//    stay within about 5 times the budget;
//  - a max_tries cap of T, the uncapped search's tries, keeps its answer,
//    and a lower cap stops the search on try cap + 1 with the serial
//    partial list at every thread count, also under a step budget;
//  - every retrieved candidate list is ascending, and the search rejects
//    one that is not.
// OnDemandDifferentialTest runs the pipeline's default, refinement on
// demand, against forced refinement (-1) and the unrefined search (0):
// the same answer sets and error codes, an attempt that overran exactly
// when the unrefined search needs more tries than its budget, and at 1
// and 4 threads the serial run's matches, order, decision and, governed,
// trip, governor steps and memory; an attempt ending exactly at its
// budget and one needing a try more, match caps, and patterns without
// edges.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/governor.h"
#include "common/thread_pool.h"
#include "match/cost.h"
#include "match/pipeline.h"
#include "match/refine.h"
#include "match_oracle.h"
#include "obs/metrics.h"
#include "workload/erdos_renyi.h"
#include "workload/protein_network.h"
#include "workload/queries.h"

namespace graphql::match {
namespace {

using SearchResult = Result<std::vector<algebra::MatchedGraph>>;

/// A search result as one comparable string: the content and order of its
/// match list, or its error status.
std::string Fingerprint(const SearchResult& result) {
  if (!result.ok()) return "error " + result.status().ToString();
  std::ostringstream out;
  for (const algebra::MatchedGraph& m : *result) {
    out << "[";
    for (NodeId v : m.node_mapping) out << v << " ";
    out << "|";
    for (EdgeId e : m.edge_mapping) out << e << " ";
    out << "]";
  }
  return out.str();
}

/// A generated graph rebuilt with the features the search must handle:
/// a `score` on every node, edge tags and `w` weights, random edge
/// directions when directed, and extra parallel edges and self-loops.
/// Each node's `deg` counts its distinct neighbours other than itself.
Graph MakeData(bool protein, bool directed, uint64_t seed) {
  Rng rng(seed);
  Graph base;
  if (protein) {
    workload::ProteinNetworkOptions o;
    o.num_nodes = 160;
    o.num_edges = 560;
    o.num_labels = 5;
    o.num_complexes = 12;
    base = workload::MakeProteinNetwork(o, &rng);
  } else {
    workload::ErdosRenyiOptions o;
    o.num_nodes = 160;
    o.num_edges = 560;
    o.num_labels = 4;
    base = workload::MakeErdosRenyi(o, &rng);
  }
  Graph g("data", directed);
  for (NodeId v = 0; v < static_cast<NodeId>(base.NumNodes()); ++v) {
    AttrTuple attrs;
    attrs.Set("label", Value(std::string(base.Label(v))));
    attrs.Set("score", Value(rng.NextInt(0, 99)));
    g.AddNode("", std::move(attrs));
  }
  auto add = [&](NodeId src, NodeId dst) {
    AttrTuple attrs;
    if (rng.NextBool(0.3)) attrs.set_tag(rng.NextBool() ? "knows" : "likes");
    attrs.Set("w", Value(rng.NextInt(0, 9)));
    if (directed && rng.NextBool()) std::swap(src, dst);
    g.AddEdge(src, dst, "", std::move(attrs));
  };
  for (EdgeId e = 0; e < static_cast<EdgeId>(base.NumEdges()); ++e) {
    add(base.edge(e).src, base.edge(e).dst);
  }
  for (int i = 0; i < 40; ++i) {
    const Graph::Edge& e =
        base.edge(static_cast<EdgeId>(rng.NextBounded(base.NumEdges())));
    add(e.src, e.dst);
  }
  for (int i = 0; i < 12; ++i) {
    NodeId v = static_cast<NodeId>(rng.NextBounded(base.NumNodes()));
    add(v, v);
  }
  for (NodeId v = 0; v < static_cast<NodeId>(g.NumNodes()); ++v) {
    std::vector<NodeId> nbrs = oracle::UniqueNeighbors(g, v);
    std::erase(nbrs, v);
    g.node(v).attrs.Set("deg", Value(static_cast<int64_t>(nbrs.size())));
  }
  return g;
}

struct Dataset {
  std::string name;
  Graph graph;
  LabelIndex index;
  std::vector<algebra::GraphPattern> patterns;
};

/// One search input: a pattern, its candidate lists and a search order.
struct Case {
  const Dataset* data;
  const algebra::GraphPattern* pattern;
  std::vector<std::vector<NodeId>> candidates;
  std::vector<NodeId> order;
  std::string where;
};

std::vector<algebra::GraphPattern> MakePatterns(const Graph& g, Rng* rng) {
  std::vector<algebra::GraphPattern> out;
  for (size_t size : {3u, 4u, 5u}) {
    auto q = workload::ExtractConnectedQuery(g, size, rng);
    EXPECT_TRUE(q.ok()) << q.status();
    if (q.ok()) out.push_back(algebra::GraphPattern::FromGraph(*q));
  }
  for (const char* source : {
           // Tagged and predicated edges.
           R"(graph P { node a where score < 50; node b;
                        node c where score >= 30;
                        edge e1 (a, b) <knows>; edge e2 (b, c) where w > 3;
                        edge (c, a); })",
           // Residual cross-node predicate.
           R"(graph P { node a where score < 30; node b;
                        node c where score > 60;
                        edge (a, b); edge (b, c); }
              where a.score + c.score > 100)",
           // Range retrieval through the score B+-tree; both directions.
           R"(graph P { node a where score >= 10 & score < 40;
                        node b where score > 55; node c;
                        edge (a, b); edge (b, a); edge (b, c); })",
           // Declaration order maps c before anything links to it, and b
           // carries a self-loop.
           R"(graph P { node a where score < 30; node c where score > 70;
                        node b; edge (a, b); edge (b, c); edge (b, b); })",
           // Wildcard path: every level expands from the previous image.
           R"(graph P { node a; node b; node c; edge (a, b); edge (b, c); })",
           // Conjuncts out of search order: the second reads a and b but
           // runs no earlier than the first, which waits for c.
           R"(graph Order { node a where score < 30; node b where score > 20;
                            node c where score > 40; node d where score > 60;
                            edge (a, b); edge (b, c); edge (c, d); }
              where b.score + c.score > 100 & a.score + b.score < 80 &
                    a.score + d.score > 90)",
           // Integer division by zero exactly when b has fewer than three
           // distinct neighbours, so only on prefixes that cannot
           // complete: the search must answer as if it never ran there,
           // and the second conjunct waits in the subtree.
           R"(graph DeferredError { node a where score < 30; node b;
                                   node c where score > 70; node d;
                                   edge (b, a); edge (b, c); edge (b, d); }
              where a.score / (b.deg / 3) >= 0 & c.score + d.score > 150)",
           // Division by zero on (a, b) prefixes of equal score, which
           // complete: the first complete one raises it.
           R"(graph RaisedError { node a; node b; node c where score < 50;
                                 edge (a, b); edge (b, c); }
              where 100 / (a.score - b.score) != 0)",
           // An edge-attribute conjunct waits for the complete embedding,
           // and so does the conjunct after it; the first runs early.
           R"(graph EdgeLeaf { node a where score < 60; node b; node c;
                              edge e1 (a, b) <knows>; edge (b, c); }
              where a.score + b.score < 120 & e1.w + c.score > 60 &
                    b.score > c.score)",
           // A conjunct naming no node runs as each root is bound.
           R"(graph Literal { node a; node b where score > 50;
                             edge (a, b); }
              where 2 < 1)",
           // A conjunct over an edge with no attribute or predicate of its
           // own reads the edge a match reports for it.
           R"(graph EdgeFree { node a where score < 40; node b;
                              edge e (a, b); }
              where e.w + a.score > 30)",
       }) {
    auto p = algebra::GraphPattern::Parse(source);
    EXPECT_TRUE(p.ok()) << p.status();
    if (p.ok()) out.push_back(std::move(p).value());
  }
  return out;
}

Dataset* NewDataset(bool protein, bool directed, uint64_t seed) {
  Graph graph = MakeData(protein, directed, seed);
  LabelIndexOptions io;
  io.indexed_attributes = {"score"};
  // The index points at the graph, so both live in their final place.
  auto* d = new Dataset{std::string(protein ? "protein" : "er") +
                            (directed ? "/directed" : "/undirected"),
                        std::move(graph), LabelIndex(), {}};
  d->index = LabelIndex::Build(d->graph, io);
  Rng rng(seed * 31);
  d->patterns = MakePatterns(d->graph, &rng);
  return d;
}

const std::vector<const Dataset*>& Datasets() {
  static const std::vector<const Dataset*>* const kData = [] {
    auto* out = new std::vector<const Dataset*>();
    uint64_t seed = 11;
    for (bool protein : {false, true}) {
      for (bool directed : {false, true}) {
        out->push_back(NewDataset(protein, directed, seed++));
      }
    }
    return out;
  }();
  return *kData;
}

/// Every dataset x pattern x {label-only, profile+refined} x {declaration,
/// greedy} order.
std::vector<Case> Cases() {
  std::vector<Case> out;
  for (const Dataset* dp : Datasets()) {
    const Dataset& d = *dp;
    std::shared_ptr<const GraphSnapshot> snap = d.graph.snapshot();
    for (size_t pi = 0; pi < d.patterns.size(); ++pi) {
      const algebra::GraphPattern& p = d.patterns[pi];
      for (bool refined : {false, true}) {
        PipelineOptions o;
        o.candidate_mode =
            refined ? CandidateMode::kProfile : CandidateMode::kLabelOnly;
        o.metrics = nullptr;
        std::vector<std::vector<NodeId>> cand =
            RetrieveCandidates(p, d.graph, &d.index, o);
        if (refined) {
          RefineSearchSpace(p, *snap, static_cast<int>(p.graph().NumNodes()),
                            &cand);
        }
        for (bool greedy : {false, true}) {
          Case c;
          c.data = &d;
          c.pattern = &p;
          c.candidates = cand;
          c.order = greedy ? GreedySearchOrder(p, cand, &d.index)
                           : DeclarationOrder(p);
          c.where = d.name + " pattern " + std::to_string(pi) +
                    (refined ? " refined" : " label-only") +
                    (greedy ? " greedy" : " declaration");
          out.push_back(std::move(c));
        }
      }
    }
  }
  return out;
}

/// The oracle's work counts, which the engine must repeat.
void ExpectSameWork(const SearchStats& got, const SearchStats& want,
                    const std::string& where) {
  EXPECT_EQ(got.steps, want.steps) << where;
  EXPECT_EQ(got.backtracks, want.backtracks) << where;
  EXPECT_EQ(got.pred_rejects, want.pred_rejects) << where;
}

/// The oracle with each conjunct placed, for the work counts, after
/// checking that its result equals leaf-only evaluation's.
SearchResult PlacedOracle(const Case& c, const MatchOptions& options,
                          SearchStats* stats) {
  SearchResult placed = oracle::ScanSearch(
      *c.pattern, c.data->graph, c.candidates, c.order, options, stats);
  if (c.pattern->has_global_pred()) {
    SearchResult leaf =
        oracle::ScanSearch(*c.pattern, c.data->graph, c.candidates, c.order,
                           options, nullptr, oracle::Conjuncts::kLeaf);
    EXPECT_EQ(Fingerprint(placed), Fingerprint(leaf)) << c.where;
  }
  return placed;
}

TEST(SearchDifferentialTest, MatchesOracleAtEveryThreadCount) {
  ThreadPool pool(3);
  uint64_t total_matches = 0;
  // Per pattern name, the prefixes a placed conjunct rejected and the
  // searches that failed.
  std::map<std::string, uint64_t> rejects;
  std::map<std::string, int> errors;
  uint64_t edge_free_matches = 0;
  for (const Case& c : Cases()) {
    const std::string& name = c.pattern->name();
    SearchStats want_stats;
    SearchResult want = PlacedOracle(c, {}, &want_stats);
    if (want.ok()) total_matches += want->size();
    rejects[name] += want_stats.pred_rejects;
    errors[name] += want.ok() ? 0 : 1;
    if (name == "DeferredError") {
      EXPECT_TRUE(want.ok()) << want.status() << " " << c.where;
    }
    if (name == "EdgeFree") {
      EXPECT_TRUE(want.ok()) << want.status() << " " << c.where;
      if (want.ok()) edge_free_matches += want->size();
    }
    if (name == "Literal") {
      // Every root is bound, then rejected before any deeper try.
      EXPECT_TRUE(want.ok() && want->empty()) << c.where;
      EXPECT_EQ(want_stats.pred_rejects, want_stats.steps) << c.where;
    }
    for (int threads : {0, 1, 3, 4}) {
      SearchStats got_stats;
      auto got = SearchMatches(*c.pattern, c.data->graph, c.candidates,
                               c.order, {}, &got_stats, threads, &pool);
      std::string where = c.where + " threads " + std::to_string(threads);
      EXPECT_EQ(Fingerprint(got), Fingerprint(want)) << where;
      // Workers run every root; past an error serial stops early.
      if (threads < 2 || want.ok()) {
        ExpectSameWork(got_stats, want_stats, where);
      }
    }
    // A cap keeps the list at 0 and 1 threads, steps included; workers
    // search beyond it but the root-order merge keeps the same matches.
    MatchOptions capped;
    capped.max_matches = 7;
    SearchStats cap_stats;
    SearchResult want_cap = PlacedOracle(c, capped, &cap_stats);
    for (int threads : {0, 1, 3, 4}) {
      SearchStats got_stats;
      auto got = SearchMatches(*c.pattern, c.data->graph, c.candidates,
                               c.order, capped, &got_stats, threads, &pool);
      std::string where = c.where + " capped threads " +
                          std::to_string(threads);
      EXPECT_EQ(Fingerprint(got), Fingerprint(want_cap)) << where;
      EXPECT_EQ(got_stats.truncated, cap_stats.truncated) << where;
      if (threads < 2) ExpectSameWork(got_stats, cap_stats, where);
    }
  }
  EXPECT_GT(total_matches, 0u) << "vacuous differential";
  EXPECT_GT(rejects["Order"], 0u);
  EXPECT_GT(rejects["EdgeLeaf"], 0u) << "the first conjunct runs early";
  EXPECT_GT(rejects["Literal"], 0u);
  EXPECT_GT(errors["RaisedError"], 0) << "no search raised an error";
  EXPECT_GT(edge_free_matches, 0u) << "no edge-attribute conjunct held";
}

/// Arms a fresh governor and its fault injector for one run.
using ArmFn = std::function<void(ResourceGovernor*, FaultInjector*)>;

/// Runs the oracle and, at 0, 1 and 4 threads, the engine, each under a
/// fresh governor armed by `arm`: the partial list, the trip and the
/// governor's consumption must agree at every thread count, and on one
/// worker the engine's steps and backtracks too. The 4 workers must stop
/// near the budget instead of running every root: the match bytes they
/// hold stay within the memory budget plus 4 times (budget + one match),
/// and their tries within the step budget plus 4 times (budget + one
/// charge), a charge covering at most one candidate list.
void ExpectSameTrip(const Case& c, ThreadPool* pool, const ArmFn& arm,
                    const std::string& where, int* trips) {
  ResourceGovernor want_gov;
  FaultInjector want_inj;
  arm(&want_gov, &want_inj);
  MatchOptions want_opts;
  want_opts.governor = &want_gov;
  SearchStats want_stats;
  auto want = oracle::ScanSearch(*c.pattern, c.data->graph, c.candidates,
                                 c.order, want_opts, &want_stats);
  if (want_stats.governor_tripped) ++*trips;
  const Graph& p = c.pattern->graph();
  const uint64_t match_bytes =
      p.NumNodes() * sizeof(NodeId) + p.NumEdges() * sizeof(EdgeId);
  uint64_t longest = 0;
  for (const std::vector<NodeId>& phi : c.candidates) {
    longest = std::max<uint64_t>(longest, phi.size());
  }
  for (int threads : {0, 1, 4}) {
    const std::string at = where + " threads " + std::to_string(threads);
    ResourceGovernor got_gov;
    FaultInjector got_inj;
    arm(&got_gov, &got_inj);
    MatchOptions got_opts;
    got_opts.governor = &got_gov;
    SearchStats got_stats;
    auto got = SearchMatches(*c.pattern, c.data->graph, c.candidates, c.order,
                             got_opts, &got_stats, threads, pool);
    EXPECT_EQ(Fingerprint(got), Fingerprint(want)) << at;
    EXPECT_EQ(got_gov.trip_kind(), want_gov.trip_kind()) << at;
    EXPECT_EQ(got_gov.steps_used(), want_gov.steps_used()) << at;
    EXPECT_EQ(got_gov.peak_memory(), want_gov.peak_memory()) << at;
    EXPECT_EQ(got_stats.governor_tripped, want_stats.governor_tripped) << at;
    EXPECT_EQ(got_stats.truncated, want_stats.truncated) << at;
    if (threads < 2) {
      ExpectSameWork(got_stats, want_stats, at);
      continue;
    }
    const uint64_t bytes = got_gov.limits().max_memory_bytes;
    if (bytes != 0) {
      EXPECT_LE(got_stats.matches * match_bytes,
                bytes + threads * (bytes + match_bytes))
          << at;
    }
    const uint64_t steps = got_gov.limits().max_steps;
    if (steps != 0) {
      EXPECT_LE(got_stats.steps, steps + threads * (steps + longest)) << at;
    }
  }
}

TEST(SearchDifferentialTest, GovernorStepBudgetTripsOnTheSameStep) {
  ThreadPool pool(3);
  int trips = 0;
  for (const Case& c : Cases()) {
    for (uint64_t budget : {50u, 400u, 5000u}) {
      ExpectSameTrip(
          c, &pool,
          [budget](ResourceGovernor* gov, FaultInjector*) {
            gov->Arm(GovernorLimits{.max_steps = budget});
            gov->set_fault_injector(nullptr);
          },
          c.where + " governor max_steps " + std::to_string(budget), &trips);
    }
  }
  EXPECT_GT(trips, 0) << "no configuration tripped";
}

TEST(SearchDifferentialTest, GovernorMemoryBudgetTripsOnTheSameMatch) {
  // Every match reserves its mapping bytes (20 to 44 here), so these
  // budgets trip on the first, a few, and a few dozen matches; the search
  // then stops at its next try.
  ThreadPool pool(3);
  int trips = 0;
  for (const Case& c : Cases()) {
    for (uint64_t bytes : {1u, 100u, 1000u}) {
      ExpectSameTrip(
          c, &pool,
          [bytes](ResourceGovernor* gov, FaultInjector*) {
            gov->Arm(GovernorLimits{.max_memory_bytes = bytes});
            gov->set_fault_injector(nullptr);
          },
          c.where + " max_memory_bytes " + std::to_string(bytes), &trips);
    }
  }
  EXPECT_GT(trips, 0) << "no configuration tripped";
}

TEST(SearchDifferentialTest, InjectedSearchFaultTripsOnTheSameStep) {
  ThreadPool pool(3);
  int trips = 0;
  for (const Case& c : Cases()) {
    for (uint64_t at : {1u, 2u, 5u}) {
      ExpectSameTrip(
          c, &pool,
          [at](ResourceGovernor* gov, FaultInjector* inj) {
            inj->AddRule(GovernPoint::kSearch, at, TripKind::kSteps);
            gov->set_fault_injector(inj);
          },
          c.where + " search@" + std::to_string(at), &trips);
    }
  }
  EXPECT_GT(trips, 0) << "no configuration tripped";
}

TEST(SearchDifferentialTest, TryCapStopsOnTheSameTryAtEveryThreadCount) {
  // The max_tries cap an on-demand attempt runs under. With T the
  // uncapped serial search's tries, a cap of T keeps the uncapped answer,
  // and a lower cap stops the search where it would make try cap + 1,
  // with the serial partial list at every thread count. Under a governor
  // step budget as well, the earlier stop wins, with the same list, trip
  // and governor steps at every thread count.
  ThreadPool pool(3);
  int stopped = 0;
  int budget_trips = 0;
  for (const Case& c : Cases()) {
    SearchStats full_stats;
    const SearchResult full = SearchMatches(*c.pattern, c.data->graph,
                                            c.candidates, c.order, {},
                                            &full_stats);
    const uint64_t t = full_stats.steps;
    for (uint64_t cap : {t, t > 0 ? t - 1 : 0, t / 3}) {
      const std::string at = c.where + " cap " + std::to_string(cap);
      SearchStats want_stats;
      const SearchResult want =
          SearchMatches(*c.pattern, c.data->graph, c.candidates, c.order, {},
                        &want_stats, 0, nullptr, nullptr, cap);
      EXPECT_EQ(want_stats.out_of_tries, cap < t) << at;
      if (cap < t) {
        ++stopped;
        EXPECT_TRUE(want.ok()) << at;
        EXPECT_EQ(want_stats.steps, cap + 1) << at;
      } else {
        EXPECT_EQ(Fingerprint(want), Fingerprint(full)) << at;
        EXPECT_EQ(want_stats.steps, t) << at;
      }
      for (int threads : {1, 3, 4}) {
        SearchStats got_stats;
        const SearchResult got =
            SearchMatches(*c.pattern, c.data->graph, c.candidates, c.order,
                          {}, &got_stats, threads, &pool, nullptr, cap);
        const std::string where = at + " threads " + std::to_string(threads);
        EXPECT_EQ(Fingerprint(got), Fingerprint(want)) << where;
        EXPECT_EQ(got_stats.out_of_tries, want_stats.out_of_tries) << where;
        if (threads == 1) ExpectSameWork(got_stats, want_stats, where);
      }
      for (uint64_t budget : {cap / 2 + 1, cap}) {
        std::string serial;
        ResourceGovernor want_gov;
        for (int threads : {0, 1, 4}) {
          const std::string where = at + " max_steps " +
                                    std::to_string(budget) + " threads " +
                                    std::to_string(threads);
          ResourceGovernor gov;
          gov.Arm(GovernorLimits{.max_steps = budget});
          gov.set_fault_injector(nullptr);
          MatchOptions opts;
          opts.governor = &gov;
          SearchStats got_stats;
          const SearchResult got =
              SearchMatches(*c.pattern, c.data->graph, c.candidates, c.order,
                            opts, &got_stats, threads, &pool, nullptr, cap);
          const std::string print =
              Fingerprint(got) + " trip " + TripKindName(gov.trip_kind()) +
              " steps " + std::to_string(gov.steps_used()) + " stopped " +
              std::to_string(got_stats.out_of_tries) + " tripped " +
              std::to_string(got_stats.governor_tripped);
          if (threads == 0) {
            serial = print;
            budget_trips += got_stats.governor_tripped ? 1 : 0;
            // A try past the cap is never charged.
            EXPECT_LE(gov.steps_used(), cap) << where;
          } else {
            EXPECT_EQ(print, serial) << where;
          }
        }
      }
    }
  }
  EXPECT_GT(stopped, 0) << "no cap stopped a search";
  EXPECT_GT(budget_trips, 0) << "no step budget tripped under a cap";
}

TEST(SearchDifferentialTest, RetrievedCandidateListsAreAscending) {
  size_t lists = 0;
  for (const Dataset* dp : Datasets()) {
    const Dataset& d = *dp;
    for (const algebra::GraphPattern& p : d.patterns) {
      for (CandidateMode mode :
           {CandidateMode::kLabelOnly, CandidateMode::kProfile,
            CandidateMode::kNeighborhood}) {
        for (const LabelIndex* index :
             {&d.index, static_cast<const LabelIndex*>(nullptr)}) {
          PipelineOptions o;
          o.candidate_mode = mode;
          o.metrics = nullptr;
          for (const std::vector<NodeId>& list :
               RetrieveCandidates(p, d.graph, index, o)) {
            EXPECT_TRUE(std::adjacent_find(list.begin(), list.end(),
                                           std::greater_equal<NodeId>()) ==
                        list.end())
                << d.name << " mode " << CandidateModeName(mode);
            ++lists;
          }
        }
      }
    }
  }
  EXPECT_GT(lists, 0u);
}

TEST(SearchDifferentialTest, RejectsCandidateListsThatAreNotAscending) {
  const Dataset& d = *Datasets().front();
  auto p = algebra::GraphPattern::Parse(
      "graph P { node a; node b; edge (a, b); }");
  ASSERT_TRUE(p.ok());
  for (const std::vector<NodeId>& bad :
       {std::vector<NodeId>{3, 1, 2}, std::vector<NodeId>{1, 2, 2, 5}}) {
    std::vector<std::vector<NodeId>> cand = {{0, 1, 2, 3, 4}, bad};
    for (int threads : {0, 3}) {
      auto got = SearchMatches(*p, d.graph, cand, DeclarationOrder(*p), {},
                               nullptr, threads);
      ASSERT_FALSE(got.ok());
      EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

/// A search result as a comparable string that ignores the match order:
/// its sorted matches, or its error code.
std::string SetFingerprint(const SearchResult& result) {
  if (!result.ok()) {
    return std::string("error ") + StatusCodeName(result.status().code());
  }
  std::vector<std::string> matches;
  for (const algebra::MatchedGraph& m : *result) {
    matches.push_back(Fingerprint(std::vector<algebra::MatchedGraph>{m}));
  }
  std::sort(matches.begin(), matches.end());
  std::string out;
  for (const std::string& m : matches) out += m;
  return out;
}

/// One MatchPattern run and what it left in its own metrics registry.
struct PipelineRun {
  SearchResult result = std::vector<algebra::MatchedGraph>{};
  PipelineStats stats;
  obs::MetricsSnapshot metrics;

  uint64_t Counter(const std::string& name) const {
    auto it = metrics.counters.find(name);
    return it == metrics.counters.end() ? 0 : it->second;
  }
};

struct RunConfig {
  int refine_level = kRefineOnDemand;
  CandidateMode mode = CandidateMode::kProfile;
  int threads = 0;
  MatchOptions match;
  ResourceGovernor* governor = nullptr;
};

PipelineRun RunPipeline(const Dataset& d, const algebra::GraphPattern& p,
                        const RunConfig& config, ThreadPool* pool) {
  obs::MetricsRegistry registry;
  PipelineOptions o;
  o.refine_level = config.refine_level;
  o.candidate_mode = config.mode;
  o.num_threads = config.threads;
  o.pool = pool;
  o.match = config.match;
  o.governor = config.governor;
  o.metrics = &registry;
  PipelineRun run;
  run.result = MatchPattern(p, d.graph, &d.index, o, &run.stats);
  run.metrics = registry.Snapshot();
  return run;
}

/// The on-demand budget of a pattern over its retrieved lists: the try
/// budget per candidate times the lists of the nodes with a neighbour.
uint64_t AttemptBudget(const algebra::GraphPattern& p,
                       const std::vector<size_t>& retrieved) {
  uint64_t tests = 0;
  for (NodeId u = 0; u < static_cast<NodeId>(p.graph().NumNodes()); ++u) {
    if (!oracle::UniqueNeighbors(p.graph(), u).empty()) tests += retrieved[u];
  }
  return kAttemptTriesPerCandidate * tests;
}

/// The decision counts every thread count must repeat.
std::string Decision(const PipelineRun& run) {
  return "attempts " + std::to_string(run.stats.attempts) + " budget " +
         std::to_string(run.stats.attempt_budget) + " refined " +
         std::to_string(run.stats.members_refined) + " on_demand " +
         std::to_string(run.Counter("match.refine.on_demand")) +
         " degraded " + std::to_string(run.stats.refine_degraded);
}

TEST(OnDemandDifferentialTest, AnswerSetsEqualForcedRefinement) {
  // On demand, the pipeline answers as forced refinement (-1) does, as a
  // set, or fails with the same code. The attempt overran exactly when the
  // unrefined search (level 0, the same lists and order) needs more tries
  // than the budget; when it did not, its answer is that search's, order
  // included. Threads 1 and 4 repeat the serial run's matches, order and
  // decision; on one worker, its tries too.
  ThreadPool pool(3);
  int refined = 0;
  int kept = 0;
  int errors = 0;
  for (const Dataset* dp : Datasets()) {
    const Dataset& d = *dp;
    for (size_t pi = 0; pi < d.patterns.size(); ++pi) {
      const algebra::GraphPattern& p = d.patterns[pi];
      for (CandidateMode mode :
           {CandidateMode::kLabelOnly, CandidateMode::kProfile}) {
        const std::string where = d.name + " pattern " + std::to_string(pi) +
                                  " " + CandidateModeName(mode);
        RunConfig config;
        config.mode = mode;
        config.refine_level = -1;
        const PipelineRun forced = RunPipeline(d, p, config, &pool);
        config.refine_level = 0;
        const PipelineRun unrefined = RunPipeline(d, p, config, &pool);
        config.refine_level = kRefineOnDemand;
        const PipelineRun on = RunPipeline(d, p, config, &pool);

        EXPECT_EQ(SetFingerprint(on.result), SetFingerprint(forced.result))
            << where;
        errors += on.result.ok() ? 0 : 1;
        const uint64_t budget =
            AttemptBudget(p, unrefined.stats.size_retrieved);
        const uint64_t tries = unrefined.stats.search.steps;
        ASSERT_GT(p.graph().NumEdges(), 0u) << where;
        EXPECT_EQ(on.stats.attempts, 1u) << where;
        EXPECT_EQ(on.stats.attempt_budget, budget) << where;
        const bool overran = tries > budget;
        EXPECT_EQ(on.stats.members_refined, overran ? 1u : 0u) << where;
        EXPECT_EQ(on.Counter("match.refine.on_demand"), overran ? 1u : 0u)
            << where;
        if (overran) {
          ++refined;
          EXPECT_EQ(on.stats.attempt_tries, budget + 1) << where;
          EXPECT_EQ(on.Counter("match.search.abandoned_tries"), budget + 1)
              << where;
          EXPECT_EQ(on.stats.size_refined, forced.stats.size_refined)
              << where;
        } else {
          ++kept;
          EXPECT_EQ(on.stats.attempt_tries, tries) << where;
          EXPECT_EQ(on.Counter("match.search.abandoned_tries"), 0u) << where;
          EXPECT_EQ(Fingerprint(on.result), Fingerprint(unrefined.result))
              << where;
          EXPECT_EQ(on.stats.size_refined, on.stats.size_retrieved) << where;
        }
        for (int threads : {1, 4}) {
          config.threads = threads;
          const PipelineRun got = RunPipeline(d, p, config, &pool);
          const std::string at = where + " threads " + std::to_string(threads);
          EXPECT_EQ(Fingerprint(got.result), Fingerprint(on.result)) << at;
          EXPECT_EQ(Decision(got), Decision(on)) << at;
          if (threads == 1) {
            EXPECT_EQ(got.stats.attempt_tries, on.stats.attempt_tries) << at;
            EXPECT_EQ(got.Counter("match.search.abandoned_tries"),
                      on.Counter("match.search.abandoned_tries"))
                << at;
          }
        }
      }
    }
  }
  EXPECT_GT(refined, 0) << "no attempt overran its budget";
  EXPECT_GT(kept, 0) << "no attempt ended within its budget";
  EXPECT_GT(errors, 0) << "no conjunct raised an error";
}

TEST(OnDemandDifferentialTest, GovernedRunsRepeatSerialAtEveryThreadCount) {
  // Under step and memory budgets and search and refine faults, an
  // on-demand run at 1 and 4 threads repeats the serial one: the partial
  // list, the trip, the governor's steps, memory in use and peak, and the
  // decision. The abandoned attempt's match bytes are released, so memory
  // in use is what the answer holds.
  ThreadPool pool(3);
  struct Arm {
    std::string name;
    GovernorLimits limits;
    GovernPoint point = GovernPoint::kOther;
    uint64_t at = 0;
  };
  std::vector<Arm> arms = {
      {"max_steps 50", {.max_steps = 50}},
      {"max_steps 3000", {.max_steps = 3000}},
      {"max_steps 60000", {.max_steps = 60000}},
      {"max_memory_bytes 100", {.max_memory_bytes = 100}},
      {"max_memory_bytes 2000", {.max_memory_bytes = 2000}},
      {"search@5", {}, GovernPoint::kSearch, 5},
      {"refine@3", {}, GovernPoint::kRefine, 3},
  };
  int trips = 0;
  int refined = 0;
  for (const Dataset* dp : Datasets()) {
    const Dataset& d = *dp;
    for (size_t pi = 0; pi < d.patterns.size(); ++pi) {
      const algebra::GraphPattern& p = d.patterns[pi];
      for (const Arm& arm : arms) {
        std::string serial;
        for (int threads : {0, 1, 4}) {
          ResourceGovernor gov;
          FaultInjector inj;
          gov.Arm(arm.limits);
          if (arm.at != 0) inj.AddRule(arm.point, arm.at, TripKind::kSteps);
          gov.set_fault_injector(arm.at != 0 ? &inj : nullptr);
          RunConfig config;
          config.mode = CandidateMode::kLabelOnly;
          config.threads = threads;
          config.governor = &gov;
          const PipelineRun run = RunPipeline(d, p, config, &pool);
          const std::string print =
              Fingerprint(run.result) + " trip " +
              TripKindName(gov.trip_kind()) + " steps " +
              std::to_string(gov.steps_used()) + " memory " +
              std::to_string(gov.memory_used()) + " peak " +
              std::to_string(gov.peak_memory()) + " " + Decision(run);
          const std::string where = d.name + " pattern " +
                                    std::to_string(pi) + " " + arm.name +
                                    " threads " + std::to_string(threads);
          if (threads == 0) {
            serial = print;
            trips += gov.tripped() ? 1 : 0;
            refined += static_cast<int>(run.stats.members_refined);
            if (gov.memory_used() != 0 && run.result.ok()) {
              size_t held = 0;
              for (const algebra::MatchedGraph& m : *run.result) {
                held += MatchBytes(m);
              }
              EXPECT_EQ(gov.memory_used(), held) << where;
            }
          } else {
            EXPECT_EQ(print, serial) << where;
          }
        }
      }
    }
  }
  EXPECT_GT(trips, 0) << "no configuration tripped";
  EXPECT_GT(refined, 0) << "no governed attempt overran";
}

/// Data on which the attempt's tries are known: n = 2 * beta - 1 nodes
/// labelled A and n labelled B, paired by n disjoint edges, and one node
/// labelled C. Over the edge (a, b) profile retrieval keeps every A and B
/// node, so the budget is beta * 2n, and the search tries the n roots and
/// then all n candidates of the other end for each: n + n * n tries, which
/// is the budget exactly.
Graph BudgetBoundaryData() {
  const NodeId n = static_cast<NodeId>(2 * kAttemptTriesPerCandidate - 1);
  Graph g("data", /*directed=*/false);
  for (const char* label : {"A", "B"}) {
    for (NodeId i = 0; i < n; ++i) {
      AttrTuple attrs;
      attrs.Set("label", Value(std::string(label)));
      g.AddNode("", std::move(attrs));
    }
  }
  for (NodeId i = 0; i < n; ++i) g.AddEdge(i, n + i, "", AttrTuple());
  AttrTuple c;
  c.Set("label", Value(std::string("C")));
  g.AddNode("", std::move(c));
  return g;
}

TEST(OnDemandDifferentialTest, AttemptEndingAtItsBudgetIsKept) {
  // The attempt that makes exactly its budget of tries is the answer; the
  // same pattern with an isolated C node, which the order binds first, has
  // the same budget and needs one try more, so it refines. Both at every
  // thread count.
  ThreadPool pool(3);
  Dataset d{"boundary", BudgetBoundaryData(), LabelIndex(), {}};
  d.index = LabelIndex::Build(d.graph);
  const size_t n = 2 * kAttemptTriesPerCandidate - 1;
  for (const char* source :
       {R"(graph P { node a <label="A">; node b <label="B">; edge (a, b); })",
        R"(graph P { node a <label="A">; node b <label="B">; edge (a, b);
                     node c <label="C">; })"}) {
    auto p = algebra::GraphPattern::Parse(source);
    ASSERT_TRUE(p.ok()) << p.status();
    const bool isolated = p->graph().NumNodes() == 3;
    const uint64_t budget = kAttemptTriesPerCandidate * 2 * n;
    RunConfig config;
    config.refine_level = 0;
    const PipelineRun unrefined = RunPipeline(d, *p, config, &pool);
    ASSERT_EQ(unrefined.stats.search.steps, budget + (isolated ? 1 : 0));
    config.refine_level = kRefineOnDemand;
    for (int threads : {0, 1, 4}) {
      config.threads = threads;
      const PipelineRun run = RunPipeline(d, *p, config, &pool);
      const std::string where = std::string(isolated ? "B + 1" : "B") +
                                " threads " + std::to_string(threads);
      ASSERT_TRUE(run.result.ok()) << run.result.status() << " " << where;
      EXPECT_EQ(run.result->size(), n) << where;
      EXPECT_EQ(run.stats.attempt_budget, budget) << where;
      EXPECT_EQ(run.stats.members_refined, isolated ? 1u : 0u) << where;
      if (threads < 2) {
        EXPECT_EQ(run.stats.attempt_tries, budget + (isolated ? 1 : 0))
            << where;
      }
      if (!isolated) {
        EXPECT_EQ(Fingerprint(run.result), Fingerprint(unrefined.result))
            << where;
      }
    }
  }
}

TEST(OnDemandDifferentialTest, MatchCapsRepeatAtEveryThreadCount) {
  // First-match mode and a max_matches cap: the matches, their order and
  // the truncation repeat the serial run at 1 and 4 threads, every match
  // is one of forced refinement's, and there are as many as the cap lets
  // the full answer give.
  ThreadPool pool(3);
  for (const Dataset* dp : Datasets()) {
    const Dataset& d = *dp;
    for (size_t pi = 0; pi < d.patterns.size(); ++pi) {
      const algebra::GraphPattern& p = d.patterns[pi];
      RunConfig config;
      config.mode = CandidateMode::kLabelOnly;
      config.refine_level = -1;
      const PipelineRun forced = RunPipeline(d, p, config, &pool);
      config.refine_level = kRefineOnDemand;
      std::set<std::string> all;
      if (forced.result.ok()) {
        for (const algebra::MatchedGraph& m : *forced.result) {
          all.insert(Fingerprint(std::vector<algebra::MatchedGraph>{m}));
        }
      }
      for (size_t cap : {size_t{1}, size_t{7}}) {
        config.match = MatchOptions{};
        if (cap == 1) {
          config.match.exhaustive = false;
        } else {
          config.match.max_matches = cap;
        }
        std::string serial;
        for (int threads : {0, 1, 4}) {
          config.threads = threads;
          const PipelineRun run = RunPipeline(d, p, config, &pool);
          const std::string where = d.name + " pattern " +
                                    std::to_string(pi) + " cap " +
                                    std::to_string(cap) + " threads " +
                                    std::to_string(threads);
          const std::string print =
              Fingerprint(run.result) + " truncated " +
              std::to_string(run.stats.search.truncated) + " " +
              Decision(run);
          if (threads > 0) {
            EXPECT_EQ(print, serial) << where;
            continue;
          }
          serial = print;
          if (!run.result.ok() || !forced.result.ok()) continue;
          EXPECT_EQ(run.result->size(), std::min(cap, all.size())) << where;
          for (const algebra::MatchedGraph& m : *run.result) {
            EXPECT_TRUE(all.count(
                Fingerprint(std::vector<algebra::MatchedGraph>{m})))
                << where;
          }
        }
      }
    }
  }
}

TEST(OnDemandDifferentialTest, PatternsWithoutEdgesNeverRefine) {
  // Algorithm 4.2 tests nothing for a pattern without edges, so on demand
  // it runs no attempt and no refinement: the empty pattern, with literal
  // conjuncts that hold and that fail to evaluate, answers nothing, and
  // two isolated nodes answer forced refinement's set, at every thread
  // count.
  ThreadPool pool(3);
  const Dataset& d = *Datasets().front();
  for (const char* source :
       {"graph P { } where 1 < 2", "graph P { } where 1 / 0 > 0",
        "graph P { node a where score < 5; node b where score > 95; }"}) {
    auto p = algebra::GraphPattern::Parse(source);
    ASSERT_TRUE(p.ok()) << p.status();
    RunConfig config;
    config.refine_level = -1;
    const PipelineRun forced = RunPipeline(d, *p, config, &pool);
    config.refine_level = kRefineOnDemand;
    std::string serial;
    for (int threads : {0, 1, 4}) {
      config.threads = threads;
      const PipelineRun run = RunPipeline(d, *p, config, &pool);
      const std::string where =
          std::string(source) + " threads " + std::to_string(threads);
      ASSERT_TRUE(run.result.ok()) << run.result.status() << " " << where;
      EXPECT_EQ(run.result->empty(), p->graph().NumNodes() == 0) << where;
      EXPECT_EQ(SetFingerprint(run.result), SetFingerprint(forced.result))
          << where;
      EXPECT_EQ(run.stats.attempts, 0u) << where;
      EXPECT_EQ(run.stats.members_refined, 0u) << where;
      if (threads == 0) {
        serial = Fingerprint(run.result);
      } else {
        EXPECT_EQ(Fingerprint(run.result), serial) << where;
      }
    }
  }
}

}  // namespace
}  // namespace graphql::match
