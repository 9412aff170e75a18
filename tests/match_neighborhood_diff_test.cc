// Differential tests for retrieve-by-subgraphs (Section 4.2, Definition
// 4.10). LabelIndex stores each node's neighborhood as snapshot-id members
// walked over the CSR, and the pattern side walks the pattern's snapshot;
// match_oracle.h keeps the builder-graph form, where each neighborhood is
// its own Graph. Over random directed and undirected graphs with parallel
// edges, self-loops and unlabeled nodes, at radius 0 to 2:
// - every (pattern node, data node) verdict equals the oracle's, and every
//   stored neighborhood has the oracle's size, edge count and labels;
// - kNeighborhood retrieval returns the oracle's lists at threads 0, 1 and
//   4, with the same neighborhood counters at each;
// - under step budgets, every thread count returns the calling-thread
//   run's lists, counters, trip and governor consumption, and those lists
//   are the oracle's up to the node the budget tripped in: that node keeps
//   a superset of the oracle's list (a test cut short keeps its candidate)
//   or nothing (the trip came at its charge), and later nodes keep nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/governor.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "match/label_index.h"
#include "match/neighborhood.h"
#include "match/pipeline.h"
#include "match_oracle.h"
#include "obs/metrics.h"

namespace graphql::match {
namespace {

/// n nodes and m edges drawn with replacement, so parallel edges and
/// self-loops occur (one of each is added outright); a node carries one of
/// `labels` labels, or none with probability 1/4.
Graph RandomGraph(Rng* rng, size_t n, size_t m, size_t labels,
                  bool directed) {
  Graph g("G", directed);
  for (size_t i = 0; i < n; ++i) {
    const NodeId v = g.AddNode("n" + std::to_string(i));
    if (rng->NextBounded(4) != 0) {
      g.SetLabel(v, "L" + std::to_string(rng->NextBounded(labels)));
    }
  }
  auto any = [&] { return static_cast<NodeId>(rng->NextBounded(n)); };
  for (size_t e = 0; e < m; ++e) g.AddEdge(any(), any());
  const NodeId a = any();
  const NodeId b = any();
  g.AddEdge(a, a);
  g.AddEdge(a, b);
  g.AddEdge(a, b);
  return g;
}

/// A pattern cut from g: up to `size` nodes reached by BFS from a random
/// node, every edge among them (parallel edges and self-loops included),
/// and each label dropped with probability 1/4, leaving a wildcard.
algebra::GraphPattern CutPattern(const Graph& g, Rng* rng, size_t size) {
  std::vector<NodeId> nodes = {
      static_cast<NodeId>(rng->NextBounded(g.NumNodes()))};
  std::vector<NodeId> local(g.NumNodes(), kInvalidNode);
  local[nodes[0]] = 0;
  for (size_t i = 0; i < nodes.size() && nodes.size() < size; ++i) {
    std::vector<NodeId> next;
    for (const Graph::Adj& a : g.neighbors(nodes[i])) next.push_back(a.node);
    if (g.directed()) {
      for (const Graph::Adj& a : g.in_neighbors(nodes[i])) {
        next.push_back(a.node);
      }
    }
    for (NodeId x : next) {
      if (local[x] != kInvalidNode || nodes.size() == size) continue;
      local[x] = static_cast<NodeId>(nodes.size());
      nodes.push_back(x);
    }
  }
  Graph p("P", g.directed());
  for (NodeId x : nodes) {
    const NodeId u = p.AddNode("u" + std::to_string(p.NumNodes()));
    if (!g.Label(x).empty() && rng->NextBounded(4) != 0) {
      p.SetLabel(u, std::string(g.Label(x)));
    }
  }
  for (size_t e = 0; e < g.NumEdges(); ++e) {
    const Graph::Edge& edge = g.edge(static_cast<EdgeId>(e));
    if (local[edge.src] != kInvalidNode && local[edge.dst] != kInvalidNode) {
      p.AddEdge(local[edge.src], local[edge.dst]);
    }
  }
  return algebra::GraphPattern::FromGraph(std::move(p));
}

struct Case {
  Graph data;
  std::vector<algebra::GraphPattern> patterns;
  int radius = 0;
  std::string name;
};

/// Two graphs each, directed and undirected, at radius 0, 1 and 2, with
/// eight patterns of 2 to 5 nodes per graph.
std::vector<Case> Cases() {
  std::vector<Case> out;
  for (bool directed : {false, true}) {
    for (int radius = 0; radius <= 2; ++radius) {
      for (uint64_t seed : {1, 2}) {
        Rng rng(1000 * seed + 10 * radius + (directed ? 1 : 0));
        Case c;
        c.data = RandomGraph(&rng, 30, 60, 3, directed);
        for (size_t i = 0; i < 8; ++i) {
          c.patterns.push_back(CutPattern(c.data, &rng, 2 + i % 4));
        }
        c.radius = radius;
        c.name = std::string(directed ? "directed" : "undirected") +
                 " radius " + std::to_string(radius) + " seed " +
                 std::to_string(seed);
        out.push_back(std::move(c));
      }
    }
  }
  return out;
}

LabelIndex IndexOf(const Graph& g, int radius) {
  LabelIndexOptions options;
  options.radius = radius;
  return LabelIndex::Build(g, options);
}

/// The stored neighborhood against the oracle's builder graph: the same
/// node count, edge count, center label and label multiset.
void ExpectSameShape(const NeighborhoodSubgraph& got,
                     const oracle::GraphNeighborhood& want,
                     const std::string& where) {
  ASSERT_EQ(got.members.size(), want.sub.NumNodes()) << where;
  EXPECT_EQ(got.num_edges, want.sub.NumEdges()) << where;
  std::vector<SymbolId> got_labels;
  for (NodeId x : got.members) {
    got_labels.push_back(got.snap->node_label_sym(x));
  }
  EXPECT_EQ(got_labels[0], want.label_syms[0]) << where;
  std::vector<SymbolId> want_labels = want.label_syms;
  std::sort(got_labels.begin(), got_labels.end());
  std::sort(want_labels.begin(), want_labels.end());
  EXPECT_EQ(got_labels, want_labels) << where;
}

TEST(NeighborhoodDifferentialTest, VerdictsMatchOracle) {
  size_t kept = 0;
  size_t pruned = 0;
  for (const Case& c : Cases()) {
    const LabelIndex data_index = IndexOf(c.data, c.radius);
    std::vector<oracle::GraphNeighborhood> data_hoods;
    for (size_t v = 0; v < c.data.NumNodes(); ++v) {
      data_hoods.push_back(oracle::ExtractNeighborhood(
          c.data, static_cast<NodeId>(v), c.radius));
      ExpectSameShape(data_index.neighborhood(static_cast<NodeId>(v)),
                      data_hoods.back(),
                      c.name + " data node " + std::to_string(v));
    }
    for (size_t pi = 0; pi < c.patterns.size(); ++pi) {
      const Graph& p = c.patterns[pi].graph();
      const LabelIndex pattern_index = IndexOf(p, c.radius);
      for (size_t u = 0; u < p.NumNodes(); ++u) {
        const std::string where = c.name + " pattern " + std::to_string(pi) +
                                  " node " + std::to_string(u);
        const oracle::GraphNeighborhood want_u =
            oracle::ExtractNeighborhood(p, static_cast<NodeId>(u), c.radius);
        const NeighborhoodSubgraph got_u =
            pattern_index.neighborhood(static_cast<NodeId>(u));
        ExpectSameShape(got_u, want_u, where);
        for (size_t v = 0; v < c.data.NumNodes(); ++v) {
          const bool want =
              oracle::NeighborhoodSubIsomorphic(want_u, data_hoods[v]);
          EXPECT_EQ(NeighborhoodSubIsomorphic(
                        got_u, data_index.neighborhood(static_cast<NodeId>(v))),
                    want)
              << where << " data node " << v;
          ++(want ? kept : pruned);
        }
      }
    }
  }
  EXPECT_GT(kept, 0u);
  EXPECT_GT(pruned, 0u);
}

/// The neighborhood counters a call wrote, as one comparable string.
std::string NeighborhoodCounters(const obs::MetricsRegistry& metrics) {
  std::ostringstream out;
  for (const auto& [name, value] : metrics.Snapshot().counters) {
    if (name.rfind("match.neighborhood", 0) == 0 ||
        name.rfind("match.retrieve.", 0) == 0) {
      out << name << "=" << value << " ";
    }
  }
  return out.str();
}

TEST(NeighborhoodDifferentialTest, RetrieveMatchesOracleAtEveryThreadCount) {
  ThreadPool pool(3);
  for (const Case& c : Cases()) {
    const LabelIndex index = IndexOf(c.data, c.radius);
    for (size_t pi = 0; pi < c.patterns.size(); ++pi) {
      const algebra::GraphPattern& p = c.patterns[pi];
      const std::vector<std::vector<NodeId>> feasible =
          oracle::ScanCandidates(p, c.data);
      const std::vector<std::vector<NodeId>> want =
          oracle::NeighborhoodCandidates(p, c.data, c.radius);
      std::string want_counters;
      for (int threads : {0, 1, 4}) {
        const std::string where = c.name + " pattern " + std::to_string(pi) +
                                  " threads " + std::to_string(threads);
        PipelineOptions options;
        options.candidate_mode = CandidateMode::kNeighborhood;
        options.num_threads = threads;
        options.pool = &pool;
        obs::MetricsRegistry metrics;
        options.metrics = &metrics;
        PipelineStats stats;
        EXPECT_EQ(RetrieveCandidates(p, c.data, &index, options, &stats), want)
            << where;
        ASSERT_EQ(stats.size_attr.size(), want.size()) << where;
        uint64_t tests = 0;
        for (size_t u = 0; u < want.size(); ++u) {
          EXPECT_EQ(stats.size_attr[u], feasible[u].size()) << where;
          tests += feasible[u].size();
        }
        EXPECT_EQ(stats.retrieve.neighborhood.tests, tests) << where;
        EXPECT_EQ(stats.retrieve.neighborhood.budget_hits, 0u) << where;
        if (threads == 0) {
          want_counters = NeighborhoodCounters(metrics);
        } else {
          EXPECT_EQ(NeighborhoodCounters(metrics), want_counters) << where;
        }
      }
    }
  }
}

TEST(NeighborhoodDifferentialTest, GovernedRetrieveEqualAcrossThreads) {
  ThreadPool pool(3);
  size_t test_trips = 0;    // Budgets that ran out inside a test.
  size_t charge_trips = 0;  // Budgets that ran out at a node's charge.
  for (const Case& c : Cases()) {
    const LabelIndex index = IndexOf(c.data, c.radius);
    for (size_t pi = 0; pi < c.patterns.size(); ++pi) {
      const algebra::GraphPattern& p = c.patterns[pi];
      const std::vector<std::vector<NodeId>> feasible =
          oracle::ScanCandidates(p, c.data);
      const std::vector<std::vector<NodeId>> want =
          oracle::NeighborhoodCandidates(p, c.data, c.radius);
      PipelineOptions options;
      options.candidate_mode = CandidateMode::kNeighborhood;
      options.pool = &pool;
      options.metrics = nullptr;
      // What the whole retrieve charges, to place budgets inside it.
      ResourceGovernor probe;
      options.governor = &probe;
      RetrieveCandidates(p, c.data, &index, options);
      const uint64_t total = probe.steps_used();
      ASSERT_GT(total, 0u);
      for (uint64_t budget :
           {uint64_t{1}, total / 4 + 1, total / 2 + 1, (3 * total) / 4 + 1,
            total - 1, total}) {
        if (budget == 0) continue;
        std::vector<std::vector<NodeId>> first;
        std::string first_counters;
        uint64_t first_steps = 0;
        std::string first_point;
        for (int threads : {0, 1, 4}) {
          const std::string where =
              c.name + " pattern " + std::to_string(pi) + " budget " +
              std::to_string(budget) + "/" + std::to_string(total) +
              " threads " + std::to_string(threads);
          ResourceGovernor governor(GovernorLimits{.max_steps = budget});
          obs::MetricsRegistry metrics;
          options.governor = &governor;
          options.metrics = &metrics;
          options.num_threads = threads;
          const std::vector<std::vector<NodeId>> got =
              RetrieveCandidates(p, c.data, &index, options);
          options.metrics = nullptr;
          const std::string point =
              governor.tripped() ? GovernPointName(governor.trip_point())
                                 : "none";
          if (threads != 0) {
            EXPECT_EQ(got, first) << where;
            EXPECT_EQ(NeighborhoodCounters(metrics), first_counters) << where;
            EXPECT_EQ(governor.steps_used(), first_steps) << where;
            EXPECT_EQ(point, first_point) << where;
            continue;
          }
          first = got;
          first_counters = NeighborhoodCounters(metrics);
          first_steps = governor.steps_used();
          first_point = point;
          if (budget >= total) {
            EXPECT_EQ(got, want) << where;
            EXPECT_FALSE(governor.tripped()) << where;
            continue;
          }
          ASSERT_TRUE(governor.tripped()) << where;
          ++(governor.trip_point() == GovernPoint::kNeighborhood
                 ? test_trips
                 : charge_trips);
          size_t t = 0;
          while (t < want.size() && got[t] == want[t]) ++t;
          if (t == want.size()) continue;
          if (!got[t].empty()) {
            EXPECT_TRUE(std::includes(got[t].begin(), got[t].end(),
                                      want[t].begin(), want[t].end()))
                << where << " node " << t;
            EXPECT_TRUE(std::includes(feasible[t].begin(), feasible[t].end(),
                                      got[t].begin(), got[t].end()))
                << where << " node " << t;
          }
          for (size_t u = t + 1; u < got.size(); ++u) {
            EXPECT_TRUE(got[u].empty()) << where << " node " << u;
          }
        }
      }
    }
  }
  EXPECT_GT(test_trips, 0u) << "no budget ran out inside a test";
  EXPECT_GT(charge_trips, 0u) << "no budget ran out at a node's charge";
}

}  // namespace
}  // namespace graphql::match
