// Differential tests for candidate selection. At the kernel seam,
// ScanBaseList's per-candidate test must keep exactly the candidates — in
// base-list order — that the AST feasible-mate test
// GraphPattern::NodeCompatible keeps, for every pattern node, with
// predicates inside and outside the bytecode ISA; a plan that omits the
// label requirement must keep them over the label's posting list. Through
// the pipeline, retrieval must equal the AST scan in the match_oracle.h
// reference, indexed or not, at any thread count, and over the mapped
// snapshots of a collection opened from a v3 image. Governed queries must
// trip at the same point and return the same partial results at every
// thread count and on every repeated run, indexed or not.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/governor.h"
#include "common/thread_pool.h"
#include "io/snapshot_v3.h"
#include "match/pipeline.h"
#include "match/profile.h"
#include "match/vectorized.h"
#include "match_oracle.h"
#include "obs/metrics.h"
#include "workload/dblp.h"
#include "workload/erdos_renyi.h"
#include "workload/queries.h"

namespace graphql::match {
namespace {

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

/// Zipf-labeled random graph with numeric and (sparse) string attributes,
/// so label reqs, string-symbol columns, and comparison predicates all
/// have real columns to run against.
Graph MakeData() {
  Rng rng(424242);
  workload::ErdosRenyiOptions opts;
  opts.num_nodes = 150;
  opts.num_edges = 450;
  opts.num_labels = 4;
  Graph data = workload::MakeErdosRenyi(opts, &rng);
  for (NodeId v = 0; v < static_cast<NodeId>(data.NumNodes()); ++v) {
    data.node(v).attrs.Set("score", Value(int64_t{(v * 7) % 50}));
    if (v % 3 == 0) {
      data.node(v).attrs.Set("tier", Value(v % 6 == 0 ? "gold" : "silver"));
    }
  }
  return data;
}

std::vector<algebra::GraphPattern> MakePatterns() {
  std::vector<algebra::GraphPattern> out;
  for (const char* source : {
           // Labeled triangle (structural reqs only).
           R"(graph P { node a <label="L0">; node b <label="L1">;
                        node c <label="L2">;
                        edge (a, b); edge (b, c); edge (c, a); })",
           // Path with a repeated label (tests injectivity ordering).
           R"(graph P { node a <label="L0">; node b <label="L1">;
                        node c <label="L0">;
                        edge (a, b); edge (b, c); })",
           // Comparison predicate inside the bytecode ISA.
           R"(graph P { node a <label="L0"> where score > 10;
                        node b where score <= 40; edge (a, b); })",
           // String equality (compiles to an interned-symbol compare);
           // absent attributes must reject on every kernel.
           R"(graph P { node a where tier == "gold"; node b;
                        edge (a, b); })",
           // Arithmetic predicate outside the ISA: forces the AST
           // interpreter fallback.
           R"(graph P { node a where score + 0 > 10; node b <label="L1">;
                        edge (a, b); })",
       }) {
    auto p = algebra::GraphPattern::Parse(source);
    EXPECT_TRUE(p.ok()) << p.status();
    out.push_back(std::move(p).value());
  }
  return out;
}

TEST(VectorizedDifferentialTest, KernelsBitIdenticalAcrossConfigs) {
  Graph data = MakeData();
  LabelIndex index = LabelIndex::Build(data);
  std::shared_ptr<const GraphSnapshot> snap = data.snapshot();
  // Base lists of every shape retrieval produces: all nodes, a label
  // list, and a value-ordered (not ascending) subset like a B+-tree range.
  std::vector<NodeId> all_nodes(data.NumNodes());
  for (size_t v = 0; v < all_nodes.size(); ++v) {
    all_nodes[v] = static_cast<NodeId>(v);
  }
  std::vector<NodeId> shuffled;
  for (size_t v = 0; v < data.NumNodes(); v += 3) {
    shuffled.push_back(static_cast<NodeId>((v * 37) % data.NumNodes()));
  }
  const std::vector<const std::vector<NodeId>*> bases = {
      &all_nodes, &index.NodesWithLabel("L1"), &shuffled};

  size_t kept = 0;
  size_t label_lists = 0;
  for (const algebra::GraphPattern& p : MakePatterns()) {
    SelectionPlan plan(p, *snap);
    SelectionPlan label_plan(p, *snap, /*label_lists=*/true);
    for (size_t u = 0; u < p.graph().NumNodes(); ++u) {
      const NodeId pu = static_cast<NodeId>(u);
      auto ast_scan = [&](const std::vector<NodeId>& base) {
        std::vector<NodeId> want;
        for (NodeId v : base) {
          if (p.NodeCompatible(pu, data, v)) want.push_back(v);
        }
        return want;
      };
      for (size_t bi = 0; bi < bases.size(); ++bi) {
        const std::vector<NodeId> want = ast_scan(*bases[bi]);
        kept += want.size();
        algebra::PatternScratch scratch;
        std::vector<NodeId> got;
        ScanBaseList(plan, pu, data, *bases[bi], &scratch, &got);
        EXPECT_EQ(got, want) << "per-candidate u" << u << " base " << bi;
      }
      // Over its own posting list, a labelled node's plan skips the label
      // check and still keeps what the AST test keeps.
      EXPECT_EQ(label_plan.base_label(pu) != kNoSymbol,
                !p.graph().Label(pu).empty());
      EXPECT_EQ(plan.base_label(pu), label_plan.base_label(pu));
      if (label_plan.base_label(pu) == kNoSymbol) continue;
      ++label_lists;
      const std::vector<NodeId>& posting =
          index.NodesWithLabelSym(label_plan.base_label(pu));
      EXPECT_EQ(&posting, &index.NodesWithLabel(p.graph().Label(pu)));
      algebra::PatternScratch scratch;
      std::vector<NodeId> got;
      ScanBaseList(label_plan, pu, data, posting, &scratch, &got);
      EXPECT_EQ(got, ast_scan(posting)) << "label list u" << u;
    }
  }
  EXPECT_GT(kept, 0u) << "vacuous differential";
  EXPECT_GT(label_lists, 0u) << "no labelled pattern node";
}

TEST(VectorizedDifferentialTest, RetrieveCandidatesIdenticalAcrossKernels) {
  // Label-only retrieval runs the per-candidate test where the plan has
  // something left to check and takes the base list as it is where not;
  // either way it must keep what the AST scan keeps, at any thread count.
  Graph data = MakeData();
  LabelIndex index = LabelIndex::Build(data);
  std::shared_ptr<const GraphSnapshot> snap = data.snapshot();
  ThreadPool pool(2);
  std::set<bool> accepts_all;
  for (const algebra::GraphPattern& p : MakePatterns()) {
    const std::vector<std::vector<NodeId>> want =
        oracle::ScanCandidates(p, data);
    SelectionPlan plan(p, *snap, /*label_lists=*/true);
    for (size_t u = 0; u < p.graph().NumNodes(); ++u) {
      accepts_all.insert(plan.AcceptsAll(static_cast<NodeId>(u)));
    }
    for (int threads : {0, 1, 3}) {
      PipelineOptions options;
      options.candidate_mode = CandidateMode::kLabelOnly;
      options.num_threads = threads;
      options.pool = &pool;
      options.metrics = nullptr;
      EXPECT_EQ(RetrieveCandidates(p, data, &index, options), want)
          << "threads " << threads;
    }
  }
  EXPECT_EQ(accepts_all.size(), 2u) << "sweep does not reach both paths";
}

TEST(VectorizedDifferentialTest, StaleIndexStillChecksLabels) {
  // An index built before the graph changed does not describe the
  // snapshot retrieval runs on: its posting lists no longer guarantee the
  // label, so retrieval checks it again and drops the relabelled nodes.
  Graph data = MakeData();
  LabelIndex index = LabelIndex::Build(data);
  const std::vector<NodeId> l0 = index.NodesWithLabel("L0");
  ASSERT_GE(l0.size(), 2u);
  data.SetLabel(l0[0], "L1");
  auto p = algebra::GraphPattern::Parse(R"(graph P { node a <label="L0">; })");
  ASSERT_TRUE(p.ok()) << p.status();
  PipelineOptions options;
  options.candidate_mode = CandidateMode::kLabelOnly;
  options.metrics = nullptr;
  const std::vector<std::vector<NodeId>> got =
      RetrieveCandidates(*p, data, &index, options);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], std::vector<NodeId>(l0.begin() + 1, l0.end()));
}

TEST(VectorizedDifferentialTest, ProfileRetrievalMatchesOracle) {
  // 130 Zipf labels on 600 nodes: more label symbols than signature bits,
  // so distinct labels share a bit and only the merge tells them apart.
  // Profile retrieval must return exactly the oracle's lists, sizes and
  // pruned count at every thread count.
  Rng rng(130130);
  workload::ErdosRenyiOptions opts;
  opts.num_nodes = 600;
  opts.num_edges = 2400;
  opts.num_labels = 130;
  Graph data = workload::MakeErdosRenyi(opts, &rng);
  LabelIndex index = LabelIndex::Build(data);
  ASSERT_GT(index.NumLabels(), 64u) << "no two labels need share a bit";
  const int radius = index.options().radius;

  std::vector<algebra::GraphPattern> patterns;
  for (const char* source : {
           // Node a needs two L1 neighbors: multiplicity, not just the set.
           R"(graph P { node a <label="L0">; node b <label="L1">;
                        node c <label="L1">; edge (a, b); edge (a, c); })",
           // A wildcard center between two nodes of one label.
           R"(graph P { node a <label="L2">; node b; node c <label="L2">;
                        edge (a, b); edge (b, c); })",
       }) {
    auto p = algebra::GraphPattern::Parse(source);
    ASSERT_TRUE(p.ok()) << p.status();
    patterns.push_back(std::move(p).value());
  }
  for (size_t attempt = 0; attempt < 100 && patterns.size() < 14; ++attempt) {
    Result<Graph> q =
        workload::ExtractConnectedQuery(data, 2 + attempt % 5, &rng);
    if (q.ok()) patterns.push_back(algebra::GraphPattern::FromGraph(*q));
  }
  ASSERT_EQ(patterns.size(), 14u);

  ThreadPool pool(3);
  uint64_t sig_rejects = 0;    // Rejected by the signature alone.
  uint64_t merge_rejects = 0;  // Signature passed, the merge rejected.
  for (size_t pi = 0; pi < patterns.size(); ++pi) {
    const algebra::GraphPattern& p = patterns[pi];
    const std::vector<std::vector<NodeId>> feasible =
        oracle::ScanCandidates(p, data);
    const std::vector<std::vector<NodeId>> want =
        oracle::ProfileCandidates(p, data, radius);
    uint64_t want_pruned = 0;
    for (size_t u = 0; u < want.size(); ++u) {
      want_pruned += feasible[u].size() - want[u].size();
      const uint64_t sig = ProfileSignature(
          oracle::BuildProfile(p.graph(), static_cast<NodeId>(u), radius));
      for (NodeId v : feasible[u]) {
        if (std::binary_search(want[u].begin(), want[u].end(), v)) continue;
        ++((sig & ~index.profile_signature(v)) != 0 ? sig_rejects
                                                    : merge_rejects);
      }
    }
    for (int threads : {0, 1, 3}) {
      PipelineOptions options;
      options.candidate_mode = CandidateMode::kProfile;
      options.num_threads = threads;
      options.pool = &pool;
      obs::MetricsRegistry metrics;
      options.metrics = &metrics;
      PipelineStats stats;
      const std::string where =
          "pattern " + std::to_string(pi) + " threads " +
          std::to_string(threads);
      EXPECT_EQ(RetrieveCandidates(p, data, &index, options, &stats), want)
          << where;
      ASSERT_EQ(stats.size_attr.size(), want.size()) << where;
      for (size_t u = 0; u < want.size(); ++u) {
        EXPECT_EQ(stats.size_attr[u], feasible[u].size()) << where;
        EXPECT_EQ(stats.size_retrieved[u], want[u].size()) << where;
      }
      EXPECT_EQ(metrics.GetCounter("match.retrieve.profile_pruned")->Value(),
                want_pruned)
          << where;
    }
  }
  EXPECT_GT(sig_rejects, 0u) << "no candidate rejected by its signature";
  EXPECT_GT(merge_rejects, 0u) << "no signature collision reached the merge";
}

TEST(VectorizedDifferentialTest, FullScanPathIdenticalAcrossKernels) {
  // index == nullptr exercises the full-scan retrieve (every node is a
  // base candidate); it must equal the AST scan, and the scan-fed pipeline
  // must find the index-fed pipeline's matches.
  Graph data = MakeData();
  LabelIndex index = LabelIndex::Build(data);
  std::vector<algebra::GraphPattern> patterns = MakePatterns();
  for (size_t pi = 0; pi < patterns.size(); ++pi) {
    PipelineOptions options;
    options.metrics = nullptr;
    EXPECT_EQ(RetrieveCandidates(patterns[pi], data, nullptr, options),
              oracle::ScanCandidates(patterns[pi], data))
        << "pattern " << pi;
    auto scanned = MatchPattern(patterns[pi], data, nullptr, options);
    auto indexed = MatchPattern(patterns[pi], data, &index, options);
    ASSERT_TRUE(scanned.ok()) << scanned.status();
    ASSERT_TRUE(indexed.ok()) << indexed.status();
    std::set<std::vector<NodeId>> a;
    std::set<std::vector<NodeId>> b;
    for (const auto& m : *scanned) a.insert(m.node_mapping);
    for (const auto& m : *indexed) b.insert(m.node_mapping);
    EXPECT_EQ(a, b) << "pattern " << pi;
  }
}

TEST(VectorizedDifferentialTest, IndexLessRetrieveOverMappedMembers) {
  // A durable store recovers its documents from v3 images: each member
  // graph adopts a snapshot that views the mapped pages. Index-less
  // retrieval over such members, the per-member step of a collection
  // select, must keep what the AST scan keeps over the materialized graph
  // for a tag, a string-equality requirement, a compiled predicate and a
  // residual (AST-interpreted) predicate.
  Rng rng(2020);
  workload::DblpOptions o;
  o.num_papers = 40;
  o.num_authors = 12;
  GraphCollection dblp = workload::MakeDblpCollection(o, &rng);
  auto image = io::BuildCollectionV3(dblp, /*store_version=*/1);
  ASSERT_TRUE(image.ok()) << image.status();
  auto opened = io::OpenCollectionV3FromBuffer(std::move(image).value());
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto members = io::MaterializeGraphs(*opened);
  ASSERT_TRUE(members.ok()) << members.status();
  ASSERT_EQ(members->size(), dblp.size());

  std::vector<algebra::GraphPattern> patterns;
  for (const char* source : {
           R"(graph Q { node a <author>; })",
           R"(graph Q { node a <author name="A3">; })",
           R"(graph Q { node a <author>; node b <author>; }
              where a.name == "A3")",
           R"(graph Q { node a <author>; node b; } where a.name + "" == "A3")",
       }) {
    auto p = algebra::GraphPattern::Parse(source);
    ASSERT_TRUE(p.ok()) << p.status();
    patterns.push_back(std::move(p).value());
  }
  PipelineOptions options;
  options.metrics = nullptr;
  std::vector<size_t> kept(patterns.size(), 0);
  std::vector<PipelineStats> stats(patterns.size());
  for (size_t gi = 0; gi < members->size(); ++gi) {
    const Graph& g = (*members)[gi];
    bool fresh = true;
    std::shared_ptr<const GraphSnapshot> snap = g.snapshot(&fresh);
    ASSERT_FALSE(fresh) << "member " << gi;
    ASSERT_EQ(snap.get(), opened->snapshots[gi].get());
    EXPECT_TRUE(snap->is_mapped()) << "member " << gi;
    for (size_t pi = 0; pi < patterns.size(); ++pi) {
      const std::vector<std::vector<NodeId>> want =
          oracle::ScanCandidates(patterns[pi], g);
      kept[pi] += want[0].size();
      EXPECT_EQ(RetrieveCandidates(patterns[pi], g, nullptr, options,
                                   &stats[pi]),
                want)
          << "member " << gi << " pattern " << pi;
    }
  }
  for (size_t pi = 0; pi < patterns.size(); ++pi) {
    EXPECT_GT(kept[pi], 0u) << "pattern " << pi << " kept nothing";
    EXPECT_EQ(stats[pi].retrieve.scans, members->size());
  }
  EXPECT_GT(stats[2].retrieve.pred_compiled, 0u);
  EXPECT_EQ(stats[2].retrieve.pred_fallback, 0u);
  EXPECT_GT(stats[3].retrieve.pred_fallback, 0u);
}

TEST(VectorizedDifferentialTest, GovernedTripsBitIdenticalAcrossKernels) {
  // Every stage charges the governor at fixed sites with fixed amounts, and
  // parallel stages replay their tasks' charges in serial order, so a step
  // budget must trip at the same point at every thread count and on every
  // run: the partial results, the trip and the governor's consumption must
  // equal the first, calling-thread run's bit for bit, and so must the
  // candidate sizes and scan counters retrieval reports about its lists,
  // the neighborhood test counters (the tests run on the calling thread),
  // the refine counters, the trip and degrade counters and the truncation
  // count.
  // Most neighborhood budgets trip inside retrieval's sub-isomorphism
  // tests, some inside one node's own tests (the smallest ones) and some
  // in a later node. Index-less retrieval charges |V| = 150 per pattern
  // node: 100 trips on the first node, 200 on the second, 400 on the third
  // of a three-node pattern, and 5000 lets every scan through.
  Graph data = MakeData();
  LabelIndex index = LabelIndex::Build(data);
  data.snapshot();  // Compiled once, so no run reserves its bytes.
  ASSERT_EQ(data.NumNodes(), 150u);
  ThreadPool pool(3);
  std::vector<algebra::GraphPattern> patterns = MakePatterns();
  struct Config {
    CandidateMode mode;
    uint64_t max_steps;
    const LabelIndex* index;
  };
  size_t mid_scan_trips = 0;  // Index-less trips after a node's scan.
  for (size_t pi = 0; pi < patterns.size(); ++pi) {
    for (const Config& c : {Config{CandidateMode::kProfile, 50, &index},
                            Config{CandidateMode::kProfile, 400, &index},
                            Config{CandidateMode::kProfile, 5000, &index},
                            Config{CandidateMode::kNeighborhood, 100, &index},
                            Config{CandidateMode::kNeighborhood, 200, &index},
                            Config{CandidateMode::kNeighborhood, 400, &index},
                            Config{CandidateMode::kNeighborhood, 5000, &index},
                            Config{CandidateMode::kNeighborhood, 20000, &index},
                            Config{CandidateMode::kLabelOnly, 100, nullptr},
                            Config{CandidateMode::kLabelOnly, 200, nullptr},
                            Config{CandidateMode::kLabelOnly, 400, nullptr},
                            Config{CandidateMode::kLabelOnly, 5000, nullptr}}) {
      std::string want;
      std::string want_counts;
      TripKind want_trip = TripKind::kNone;
      uint64_t want_steps = 0;
      size_t want_peak = 0;
      for (int run = 0; run < 9; ++run) {
        const int threads = std::vector<int>{0, 1, 4}[run % 3];
        ResourceGovernor governor(GovernorLimits{.max_steps = c.max_steps});
        obs::MetricsRegistry metrics;
        PipelineStats stats;
        PipelineOptions options;
        options.candidate_mode = c.mode;
        options.metrics = &metrics;
        options.governor = &governor;
        options.num_threads = threads;
        options.pool = &pool;
        auto got = MatchPattern(patterns[pi], data, c.index, options, &stats);
        ASSERT_TRUE(got.ok()) << got.status();
        std::ostringstream counts;
        for (const auto& [name, value] : metrics.Snapshot().counters) {
          for (const char* prefix :
               {"match.retrieve.", "match.neighborhood.", "match.refine.",
                "match.queries", "match.search.truncated", "governor."}) {
            if (name.rfind(prefix, 0) == 0) {
              counts << name << "=" << value << " ";
            }
          }
        }
        for (size_t n : stats.size_attr) counts << n << " ";
        counts << "|";
        for (size_t n : stats.size_retrieved) counts << " " << n;
        if (run == 0) {
          want = Fingerprint(*got);
          want_counts = counts.str();
          want_trip = governor.trip_kind();
          want_steps = governor.steps_used();
          want_peak = governor.peak_memory();
          if (c.index == nullptr && governor.tripped() &&
              governor.trip_point() == GovernPoint::kRetrieve &&
              stats.size_attr[0] > 0) {
            ++mid_scan_trips;
            EXPECT_EQ(stats.size_attr.back(), 0u);
            EXPECT_TRUE(got->empty());
          }
          continue;
        }
        const std::string where =
            "pattern " + std::to_string(pi) + " " + CandidateModeName(c.mode) +
            (c.index == nullptr ? " index-less" : "") + " max_steps " +
            std::to_string(c.max_steps) + " threads " +
            std::to_string(threads) + " run " + std::to_string(run);
        EXPECT_EQ(want, Fingerprint(*got)) << where;
        EXPECT_EQ(want_counts, counts.str()) << where;
        EXPECT_EQ(want_trip, governor.trip_kind()) << where;
        EXPECT_EQ(want_steps, governor.steps_used()) << where;
        EXPECT_EQ(want_peak, governor.peak_memory()) << where;
      }
    }
  }
  EXPECT_GT(mid_scan_trips, 0u) << "no index-less trip between node scans";
}

TEST(VectorizedDifferentialTest, BytecodeCoverageCounters) {
  Graph data = MakeData();
  LabelIndex index = LabelIndex::Build(data);

  // Comparison + string-equality predicates are inside the ISA: every
  // pushed conjunct compiles, none falls back.
  auto covered = algebra::GraphPattern::Parse(
      R"(graph P { node a <label="L0"> where score > 10;
                   node b where tier == "gold"; edge (a, b); })");
  ASSERT_TRUE(covered.ok()) << covered.status();
  obs::MetricsRegistry covered_reg;
  PipelineOptions options;
  options.metrics = &covered_reg;
  ASSERT_TRUE(MatchPattern(*covered, data, &index, options).ok());
  EXPECT_GT(covered_reg.GetCounter("match.bytecode.pred_compiled")->Value(),
            0u);
  EXPECT_EQ(covered_reg.GetCounter("match.bytecode.pred_fallback")->Value(),
            0u);

  // Arithmetic is outside the ISA: the conjunct falls back to the AST
  // interpreter, observable through the fallback counter.
  auto fallback = algebra::GraphPattern::Parse(
      R"(graph P { node a where score + 0 > 10; node b; edge (a, b); })");
  ASSERT_TRUE(fallback.ok()) << fallback.status();
  obs::MetricsRegistry fallback_reg;
  options.metrics = &fallback_reg;
  ASSERT_TRUE(MatchPattern(*fallback, data, &index, options).ok());
  EXPECT_GT(fallback_reg.GetCounter("match.bytecode.pred_fallback")->Value(),
            0u);

  // A pattern without pushed predicates compiles nothing.
  auto plain = algebra::GraphPattern::Parse(
      R"(graph P { node a <label="L0">; node b; edge (a, b); })");
  ASSERT_TRUE(plain.ok()) << plain.status();
  obs::MetricsRegistry plain_reg;
  options.metrics = &plain_reg;
  ASSERT_TRUE(MatchPattern(*plain, data, &index, options).ok());
  EXPECT_EQ(plain_reg.GetCounter("match.bytecode.pred_compiled")->Value(),
            0u);
  EXPECT_EQ(plain_reg.GetCounter("match.bytecode.pred_fallback")->Value(),
            0u);
}

}  // namespace
}  // namespace graphql::match
