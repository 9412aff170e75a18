// Differential tests for the selection pipeline, which runs every stage
// over the compiled GraphSnapshot (CSR + interned symbols + columnar
// attributes). The references live in match_oracle.h and read the mutable
// Graph instead:
//  - match sets equal the brute-force matcher in every candidate mode,
//    thread count, refine level (on demand included) and marking setting,
//    and the match order does not depend on the thread count;
//  - label-only retrieval equals the AST scan, and the pruned modes keep a
//    subsequence of it that still holds every true match;
//  - refinement equals ReferenceRefine (Algorithm 4.2 over the mutable
//    Graph, Hopcroft–Karp for every B(u, v) test) at every level, spaces
//    and every RefineStats field, on sparse undirected graphs and on a
//    dense directed one whose B(u, v) tests need augmenting paths; a
//    3-worker pipeline refines to the same space;
//  - every example query returns the same text at 0 and 3 threads through
//    the full Evaluator.
// A final test pins down that the search inner loop counts CSR probes.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "exec/evaluator.h"
#include "io/serialize.h"
#include "match/pipeline.h"
#include "match_oracle.h"
#include "motif/deriver.h"
#include "obs/metrics.h"
#include "workload/dblp.h"
#include "workload/erdos_renyi.h"
#include "workload/queries.h"

namespace graphql::match {
namespace {

constexpr CandidateMode kAllModes[] = {CandidateMode::kLabelOnly,
                                       CandidateMode::kProfile,
                                       CandidateMode::kNeighborhood};

/// A flat, order-sensitive fingerprint of a match list: any difference in
/// content OR order shows up as a string diff.
std::string Fingerprint(const std::vector<algebra::MatchedGraph>& matches) {
  std::ostringstream out;
  for (const algebra::MatchedGraph& m : matches) {
    out << "[";
    for (NodeId v : m.node_mapping) out << v << " ";
    out << "|";
    for (EdgeId e : m.edge_mapping) out << e << " ";
    out << "]";
  }
  return out.str();
}

std::set<std::vector<NodeId>> MappingSet(
    const std::vector<algebra::MatchedGraph>& matches) {
  std::set<std::vector<NodeId>> out;
  for (const algebra::MatchedGraph& m : matches) out.insert(m.node_mapping);
  return out;
}

/// Small enough for the factorial brute-force matcher.
Graph MakeData() {
  Rng rng(424242);
  workload::ErdosRenyiOptions opts;
  opts.num_nodes = 40;
  opts.num_edges = 120;
  opts.num_labels = 4;
  return workload::MakeErdosRenyi(opts, &rng);
}

std::vector<algebra::GraphPattern> MakePatterns() {
  std::vector<algebra::GraphPattern> out;
  for (const char* source : {
           // Labeled triangle.
           R"(graph P { node a <label="L0">; node b <label="L1">;
                        node c <label="L2">;
                        edge (a, b); edge (b, c); edge (c, a); })",
           // Path with a repeated label (tests injectivity ordering).
           R"(graph P { node a <label="L0">; node b <label="L1">;
                        node c <label="L0">;
                        edge (a, b); edge (b, c); })",
           // Star with unlabeled leaves (all-nodes base lists).
           R"(graph P { node hub <label="L2">; node s1; node s2; node s3;
                        edge (hub, s1); edge (hub, s2); edge (hub, s3); })",
       }) {
    auto g = motif::GraphFromSource(source);
    EXPECT_TRUE(g.ok()) << g.status();
    out.push_back(algebra::GraphPattern::FromGraph(*g));
  }
  return out;
}

TEST(SnapshotDifferentialTest, MatchPatternBitIdenticalAcrossConfigs) {
  Graph data = MakeData();
  LabelIndex index = LabelIndex::Build(data);
  ThreadPool pool(2);
  std::vector<algebra::GraphPattern> patterns = MakePatterns();

  for (size_t pi = 0; pi < patterns.size(); ++pi) {
    const std::set<std::vector<NodeId>> expected =
        oracle::BruteForceMatches(patterns[pi], data);
    EXPECT_FALSE(expected.empty()) << "vacuous differential, pattern " << pi;
    for (CandidateMode mode : kAllModes) {
      for (int refine_level : {kRefineOnDemand, -1, 0, 1, 2}) {
        for (bool marking : {true, false}) {
          std::string serial;
          for (int threads : {0, 1, 3}) {
            PipelineOptions options;
            options.candidate_mode = mode;
            options.num_threads = threads;
            options.pool = &pool;
            options.refine_level = refine_level;
            options.refine_use_marking = marking;
            options.metrics = nullptr;
            auto got = MatchPattern(patterns[pi], data, &index, options);
            ASSERT_TRUE(got.ok()) << got.status();
            std::string where = "pattern " + std::to_string(pi) + " mode " +
                                CandidateModeName(mode) + " threads " +
                                std::to_string(threads) + " refine " +
                                std::to_string(refine_level) + " marking " +
                                std::to_string(marking);
            EXPECT_EQ(MappingSet(*got), expected) << where;
            if (threads == 0) {
              serial = Fingerprint(*got);
            } else {
              EXPECT_EQ(Fingerprint(*got), serial) << where;
            }
          }
        }
      }
    }
  }
}

TEST(SnapshotDifferentialTest, RetrieveCandidatesIdentical) {
  Graph data = MakeData();
  LabelIndex index = LabelIndex::Build(data);
  ThreadPool pool(2);
  for (const algebra::GraphPattern& p : MakePatterns()) {
    const std::vector<std::vector<NodeId>> scan =
        oracle::ScanCandidates(p, data);
    const std::set<std::vector<NodeId>> matches =
        oracle::BruteForceMatches(p, data);
    for (CandidateMode mode : kAllModes) {
      std::vector<std::vector<NodeId>> serial;
      for (int threads : {0, 1, 3}) {
        PipelineOptions options;
        options.candidate_mode = mode;
        options.num_threads = threads;
        options.pool = &pool;
        options.metrics = nullptr;
        auto got = RetrieveCandidates(p, data, &index, options);
        if (threads == 0) serial = got;
        EXPECT_EQ(got, serial)
            << CandidateModeName(mode) << " threads " << threads;
      }
      if (mode == CandidateMode::kLabelOnly) {
        EXPECT_EQ(serial, scan);
        continue;
      }
      ASSERT_EQ(serial.size(), scan.size());
      for (size_t u = 0; u < scan.size(); ++u) {
        EXPECT_TRUE(std::includes(scan[u].begin(), scan[u].end(),
                                  serial[u].begin(), serial[u].end()))
            << CandidateModeName(mode) << " u" << u;
        for (const std::vector<NodeId>& m : matches) {
          EXPECT_TRUE(std::binary_search(serial[u].begin(), serial[u].end(),
                                         m[u]))
              << CandidateModeName(mode) << " pruned true mate " << m[u]
              << " of u" << u;
        }
      }
    }
  }
}

/// A directed graph with two labels, self-loops and parallel edges, over
/// twice the sparse graphs' edge density. Its neighbours share candidates,
/// so greedy's first pick inside a B(u, v) test often blocks a later row:
/// about 350 of its tests in this sweep need an augmenting path that
/// succeeds, against about 90 per sparse graph.
Graph MakeDenseDirected(Rng* rng) {
  Graph g("dense", /*directed=*/true);
  constexpr size_t kNodes = 30;
  for (size_t i = 0; i < kNodes; ++i) {
    AttrTuple attrs;
    attrs.Set("label", Value(i % 2 == 0 ? "L1" : "L0"));
    g.AddNode("", std::move(attrs));
  }
  for (size_t i = 0; i < 90; ++i) {
    g.AddEdge(static_cast<NodeId>(rng->NextBounded(kNodes)),
              static_cast<NodeId>(rng->NextBounded(kNodes)));
  }
  for (size_t v = 0; v < kNodes; v += 7) {
    const NodeId a = static_cast<NodeId>(v);
    const NodeId b = static_cast<NodeId>((v + 1) % kNodes);
    g.AddEdge(a, a);  // Self-loop.
    g.AddEdge(a, b);  // Two parallel edges.
    g.AddEdge(a, b);
  }
  return g;
}

TEST(SnapshotDifferentialTest, RefineMatchesReferenceRefine) {
  ThreadPool pool(2);
  size_t cases = 0;
  size_t shrunk = 0;
  // Seeds 1-8: sparse undirected graphs with 4 labels. Seed 9: the dense
  // directed graph.
  for (uint64_t seed = 1; seed <= 9; ++seed) {
    Rng rng(seed * 7919 + 5);
    Graph data;
    if (seed <= 8) {
      workload::ErdosRenyiOptions opts;
      opts.num_nodes = 120;
      opts.num_edges = 360;
      opts.num_labels = 4;
      data = workload::MakeErdosRenyi(opts, &rng);
    } else {
      data = MakeDenseDirected(&rng);
    }
    LabelIndex index = LabelIndex::Build(data);
    std::shared_ptr<const GraphSnapshot> snap = data.snapshot();
    for (size_t qsize : {3u, 5u, 7u}) {
      auto q = workload::ExtractConnectedQuery(data, qsize, &rng);
      ASSERT_TRUE(q.ok()) << q.status();
      algebra::GraphPattern p = algebra::GraphPattern::FromGraph(*q);
      for (CandidateMode mode : kAllModes) {
        PipelineOptions retrieve;
        retrieve.candidate_mode = mode;
        retrieve.num_threads = 0;
        retrieve.metrics = nullptr;
        const std::vector<std::vector<NodeId>> input =
            RetrieveCandidates(p, data, &index, retrieve);
        for (int level : {1, 2, 3, static_cast<int>(qsize)}) {
          for (bool marking : {true, false}) {
            std::string where = "seed " + std::to_string(seed) + " qsize " +
                                std::to_string(qsize) + " mode " +
                                CandidateModeName(mode) + " level " +
                                std::to_string(level) + " marking " +
                                std::to_string(marking);
            std::vector<std::vector<NodeId>> want = input;
            RefineStats want_stats;
            oracle::ReferenceRefine(p, data, level, &want, marking,
                                    &want_stats);
            std::vector<std::vector<NodeId>> got = input;
            RefineStats stats;
            RefineSearchSpace(p, *snap, level, &got, &stats, marking);
            EXPECT_EQ(got, want) << where;
            EXPECT_EQ(stats.bipartite_checks, want_stats.bipartite_checks)
                << where;
            EXPECT_EQ(stats.removed, want_stats.removed) << where;
            EXPECT_EQ(stats.dirty_skips, want_stats.dirty_skips) << where;
            EXPECT_EQ(stats.levels_run, want_stats.levels_run) << where;
            EXPECT_EQ(stats.pairs_charged, want_stats.pairs_charged) << where;
            EXPECT_EQ(stats.aborted, want_stats.aborted) << where;
            // A 3-worker pipeline refines to exactly the reference space.
            PipelineOptions par = retrieve;
            par.refine_level = level;
            par.refine_use_marking = marking;
            par.num_threads = 3;
            par.pool = &pool;
            PipelineStats par_stats;
            ASSERT_TRUE(MatchPattern(p, data, &index, par, &par_stats).ok());
            std::vector<size_t> want_sizes;
            for (const std::vector<NodeId>& list : want) {
              want_sizes.push_back(list.size());
            }
            EXPECT_EQ(par_stats.size_refined, want_sizes)
                << where << " threads 3";
            ++cases;
            if (want != input) ++shrunk;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 9u * 3u * 3u * 4u * 2u);
  EXPECT_GT(shrunk, cases / 4) << "refinement rarely pruned: vacuous sweep";
}

/// Synthetic documents that give every example query real matches.
void RegisterExampleDocs(exec::DocumentRegistry* docs) {
  {
    Rng rng(7);
    workload::DblpOptions opts;
    opts.num_papers = 12;
    docs->Register("DBLP", workload::MakeDblpCollection(opts, &rng));
  }
  {
    Rng rng(9);
    workload::ErdosRenyiOptions opts;
    opts.num_nodes = 12;
    opts.num_edges = 18;
    opts.num_labels = 2;
    GraphCollection network("Network");
    network.Add(workload::MakeErdosRenyi(opts, &rng));
    docs->Register("Network", std::move(network));
  }
  {
    auto g = motif::GraphFromSource(R"(
      graph Catalog {
        node a <item weight=5>; node b <item weight=3>;
        node c <item weight=12>; node d <item weight=1>;
        edge (a, b); edge (a, c); edge (b, d); edge (c, d);
      })");
    ASSERT_TRUE(g.ok()) << g.status();
    GraphCollection c("Catalog");
    c.Add(std::move(g).value());
    docs->Register("Catalog", std::move(c));
  }
  {
    auto g = motif::GraphFromSource(R"(
      graph Shipping {
        node oslo <port country="NO">; node bergen <port country="NO">;
        node hamburg <port country="DE">; node rotterdam <port country="NL">;
        edge leg1 (oslo, hamburg); edge leg2 (hamburg, rotterdam);
        edge leg3 (bergen, oslo);
      })");
    ASSERT_TRUE(g.ok()) << g.status();
    GraphCollection c("Shipping");
    c.Add(std::move(g).value());
    docs->Register("Shipping", std::move(c));
  }
  {
    auto g = motif::GraphFromSource(R"(
      graph Topology {
        node r1 <router name="r1">; node r2 <router name="r2">;
        node r3 <router name="r3">;
        edge (r1, r2) <capacity=400>; edge (r2, r3) <capacity=40>;
        edge (r3, r1) <capacity=1000>;
      })");
    ASSERT_TRUE(g.ok()) << g.status();
    GraphCollection c("Topology");
    c.Add(std::move(g).value());
    docs->Register("Topology", std::move(c));
  }
}

TEST(SnapshotDifferentialTest, ExampleQueriesBitIdentical) {
  namespace fs = std::filesystem;
  fs::path dir(GQL_EXAMPLE_QUERIES_DIR);
  ASSERT_TRUE(fs::is_directory(dir)) << dir;
  size_t ran = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".gql") continue;
    std::ifstream file(entry.path());
    ASSERT_TRUE(file.good()) << entry.path();
    std::ostringstream source;
    source << file.rdbuf();

    std::string texts[2];
    for (int pass = 0; pass < 2; ++pass) {
      exec::DocumentRegistry docs;
      RegisterExampleDocs(&docs);
      exec::Evaluator evaluator(&docs);
      evaluator.mutable_match_options()->num_threads = pass == 0 ? 0 : 3;
      evaluator.mutable_match_options()->metrics = nullptr;
      auto result = evaluator.RunSource(source.str());
      ASSERT_TRUE(result.ok())
          << entry.path() << ": " << result.status();
      std::ostringstream text;
      text << io::WriteCollectionText(result->returned);
      std::vector<std::string> names;
      for (const auto& [name, graph] : result->variables) {
        names.push_back(name);
      }
      std::sort(names.begin(), names.end());
      for (const std::string& name : names) {
        text << "--- " << name << "\n"
             << io::WriteGraphText(result->variables.at(name)) << "\n";
      }
      texts[pass] = text.str();
    }
    EXPECT_EQ(texts[0], texts[1]) << entry.path();
    ++ran;
  }
  EXPECT_GE(ran, 5u) << "example queries missing from " << dir;
}

TEST(SnapshotDifferentialTest, InnerLoopsCountSymbolProbes) {
  // Edge probes are observable through a dedicated counter. Together with
  // the code structure (SymbolId compares in FindCompatibleEdge, which the
  // snapshot-string-compare lint rule watches), this pins the "no
  // std::string in the inner loop" property. Tagged pattern edges are the
  // non-trivial case: each one routes through FindCompatibleEdge, which
  // scans the CSR run.
  auto data_or = motif::GraphFromSource(R"(
    graph G {
      node a <label="A">; node b <label="B">; node c <label="B">;
      edge k1 (a, b) <knows>; edge k2 (a, c) <knows>;
      edge (b, c);
    })");
  ASSERT_TRUE(data_or.ok()) << data_or.status();
  Graph data = std::move(data_or).value();
  LabelIndex index = LabelIndex::Build(data);
  auto pattern_or = motif::GraphFromSource(R"(
    graph P { node x <label="A">; node y <label="B">;
              edge e (x, y) <knows>; })");
  ASSERT_TRUE(pattern_or.ok()) << pattern_or.status();
  algebra::GraphPattern pattern =
      algebra::GraphPattern::FromGraph(*pattern_or);

  obs::MetricsRegistry reg;
  PipelineOptions options;
  options.metrics = &reg;
  auto got = MatchPattern(pattern, data, &index, options);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->size(), 2u);
  EXPECT_GT(reg.GetCounter("match.search.csr_edge_probes")->Value(), 0u);
}

}  // namespace
}  // namespace graphql::match
