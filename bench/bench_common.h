#ifndef GRAPHQL_BENCH_BENCH_COMMON_H_
#define GRAPHQL_BENCH_BENCH_COMMON_H_

// Shared workload setup for the figure-reproduction benchmarks. Each bench
// binary regenerates one table/figure of the paper's evaluation
// (Section 5); see DESIGN.md's experiment index for the mapping.
//
// The workloads substitute synthetic data for the paper's yeast protein
// network and MySQL instance (DESIGN.md, Substitutions) with matched
// shape: 3112 nodes / 12519 edges / 183 labels, clique queries drawn from
// the top-40 most frequent labels, Erdos-Renyi graphs with m = 5n and 100
// Zipf labels.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "algebra/pattern.h"
#include "common/governor.h"
#include "common/thread_pool.h"
#include "match/pipeline.h"
#include "obs/metrics.h"
#include "rel/sql_plan.h"
#include "workload/erdos_renyi.h"
#include "workload/protein_network.h"
#include "workload/queries.h"

namespace graphql::bench {

/// Provenance stamp embedded in every BENCH_*.json dump: the machine's
/// hardware thread count, the effective $GQL_THREADS default the engine
/// would use, and the compiler's build type — enough to tell two runs of
/// the same bench apart when comparing numbers across machines or configs.
inline std::string BuildStampJson() {
#ifdef GQL_BUILD_TYPE
  const char* build_type = GQL_BUILD_TYPE;
#elif defined(NDEBUG)
  const char* build_type = "Release(NDEBUG)";
#else
  const char* build_type = "Debug";
#endif
  std::string out = "{\"hardware_concurrency\": ";
  out += std::to_string(std::thread::hardware_concurrency());
  out += ", \"gql_threads\": ";
  out += std::to_string(DefaultNumThreads());
  out += ", \"build_type\": \"";
  out += build_type;
  out += "\"}";
  return out;
}

/// When GQL_BENCH_METRICS_JSON names a file, every bench binary dumps the
/// global metric registry there as JSON at exit (counters and latency
/// histograms accumulated by the pipeline during the run), stamped with
/// BuildStampJson(); feed the file to tools/summarize_bench.py. Registered
/// from a header so each binary picks it up just by including
/// bench_common.h.
struct MetricsDumpAtExit {
  MetricsDumpAtExit() {
    static bool registered = [] {
      std::atexit([] {
        const char* path = std::getenv("GQL_BENCH_METRICS_JSON");
        if (path == nullptr || *path == '\0') return;
        std::ofstream out(path);
        if (!out) return;
        std::string json = obs::MetricsRegistry::Global().ToJson();
        // Splice the stamp in as the first member of the top-level object.
        if (!json.empty() && json.front() == '{') {
          json.insert(1, "\"stamp\":" + BuildStampJson() + ",");
        }
        out << json << "\n";
      });
      return true;
    }();
    (void)registered;
  }
};
inline MetricsDumpAtExit metrics_dump_at_exit;

/// Per-process resource-governor knobs for bench runs, read once from the
/// environment (unset/0 = unlimited):
///   GQL_BENCH_TIMEOUT_MS      wall-clock deadline per governed query
///   GQL_BENCH_MAX_STEPS       unified step budget per governed query
///   GQL_BENCH_MAX_MEMORY_MB   approximate memory budget per governed query
/// Lets a long figure sweep be bounded ("no query may run longer than 2s")
/// without editing the benches; governed queries return their partial
/// matches, so counters still accumulate.
inline const GovernorLimits& BenchGovernorLimits() {
  static const GovernorLimits kLimits = [] {
    GovernorLimits l;
    if (const char* v = std::getenv("GQL_BENCH_TIMEOUT_MS")) {
      l.timeout_ms = std::atoll(v);
    }
    if (const char* v = std::getenv("GQL_BENCH_MAX_STEPS")) {
      l.max_steps = std::strtoull(v, nullptr, 10);
    }
    if (const char* v = std::getenv("GQL_BENCH_MAX_MEMORY_MB")) {
      l.max_memory_bytes = std::strtoull(v, nullptr, 10) * 1024 * 1024;
    }
    return l;
  }();
  return kLimits;
}

/// Per-process pipeline knob for bench runs, read once from the
/// environment (unset = engine default):
///   GQL_BENCH_THREADS   workers for the parallel selection stages
///                       (0 = serial); overrides the engine-wide
///                       $GQL_THREADS default
inline void ApplyBenchPipelineEnv(match::PipelineOptions* options) {
  static const int kThreads = [] {
    const char* v = std::getenv("GQL_BENCH_THREADS");
    return v != nullptr && *v != '\0' ? std::atoi(v) : -1;
  }();
  if (kThreads >= 0) options->num_threads = kThreads;
}

/// Installs a freshly re-armed governor (per-query deadline clock) into the
/// options when any env knob is set; leaves them ungoverned otherwise.
/// The governor is thread-local: google-benchmark runs each benchmark's
/// iterations on one thread, and one governor belongs to one query at a
/// time. Also applies the pipeline env knob (threads) so every bench
/// binary honors it without per-bench wiring.
inline void GovernBenchQuery(match::PipelineOptions* options) {
  ApplyBenchPipelineEnv(options);
  const GovernorLimits& limits = BenchGovernorLimits();
  if (limits.Unlimited()) return;
  static thread_local ResourceGovernor governor;
  governor.Arm(limits);
  options->governor = &governor;
}

/// The paper's per-query answer cap ("queries having too many hits (more
/// than 1000) are terminated immediately").
inline constexpr size_t kMaxHits = 1000;
/// Low-hits / high-hits split (Section 5.1).
inline constexpr size_t kLowHitThreshold = 100;

struct ProteinWorkload {
  Graph graph;
  match::LabelIndex index;
  std::vector<std::string> top_labels;  ///< 40 most frequent labels.
};

/// Builds (once) the protein-network workload with a radius-1 index
/// holding both profiles and neighborhood subgraphs.
inline const ProteinWorkload& GetProteinWorkload() {
  static const ProteinWorkload* const kWorkload = [] {
    auto* w = new ProteinWorkload();
    Rng rng(20080610);  // SIGMOD'08 vintage seed.
    w->graph = workload::MakeProteinNetwork({}, &rng);
    w->index = match::LabelIndex::Build(w->graph);
    auto top = w->index.LabelsByFrequency();
    for (size_t i = 0; i < 40 && i < top.size(); ++i) {
      w->top_labels.push_back(std::string(w->index.LabelName(top[i])));
    }
    return w;
  }();
  return *kWorkload;
}

struct ClassifiedQueries {
  std::vector<Graph> low_hits;   ///< 1..99 answers.
  std::vector<Graph> high_hits;  ///< >= 100 answers (capped at 1000).
};

/// Generates clique queries of `size` with answers and classifies them by
/// answer count under the optimized pipeline. The paper generates random
/// label combinations and discards no-answer queries; on the synthetic
/// network that protocol only terminates if queries are drawn from labels
/// of actual cliques, so the generator extracts a random data clique and
/// uses its labels (see workload::ExtractCliqueQuery). Generation stops
/// after `want_each` queries per class or `max_attempts` tries.
inline ClassifiedQueries MakeClassifiedCliqueQueries(size_t size,
                                                     size_t want_each,
                                                     size_t max_attempts,
                                                     uint64_t seed) {
  const ProteinWorkload& w = GetProteinWorkload();
  Rng rng(seed);
  ClassifiedQueries out;
  match::PipelineOptions options;
  options.refine_level = -1;  // Classify under the paper's setting.
  options.match.max_matches = kMaxHits;
  for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (out.low_hits.size() >= want_each &&
        out.high_hits.size() >= want_each) {
      break;
    }
    auto q = workload::ExtractCliqueQuery(w.graph, size, &rng);
    if (!q.ok()) continue;
    algebra::GraphPattern p = algebra::GraphPattern::FromGraph(*q);
    auto matches = match::MatchPattern(p, w.graph, &w.index, options);
    if (!matches.ok() || matches->empty()) continue;
    if (matches->size() < kLowHitThreshold) {
      if (out.low_hits.size() < want_each) out.low_hits.push_back(*q);
    } else {
      if (out.high_hits.size() < want_each) out.high_hits.push_back(*q);
    }
  }
  return out;
}

struct SyntheticWorkload {
  Graph graph;
  match::LabelIndex index;
};

/// Erdos-Renyi workload: n nodes, 5n edges, 100 Zipf labels (Section 5.2).
/// `build_neighborhoods` may be disabled for the large graph-size sweep.
inline SyntheticWorkload MakeSyntheticWorkload(size_t n,
                                               bool build_neighborhoods,
                                               uint64_t seed) {
  SyntheticWorkload w;
  Rng rng(seed);
  workload::ErdosRenyiOptions options;
  options.num_nodes = n;
  options.num_edges = 5 * n;
  options.num_labels = 100;
  w.graph = workload::MakeErdosRenyi(options, &rng);
  match::LabelIndexOptions iopts;
  iopts.build_neighborhoods = build_neighborhoods;
  w.index = match::LabelIndex::Build(w.graph, iopts);
  return w;
}

/// Erdos-Renyi graph with per-node predicate columns, shared by the
/// selection-kernel and parallel-scaling benches: 20k nodes / 80k edges
/// (2k / 8k when `quick`), 6 Zipf labels. "score" feeds comparisons,
/// "tier" feeds the interned string-equality path, and its absence on 2/3
/// of nodes exercises the absent-attribute reject.
inline Graph MakeScoredErdosRenyi(bool quick) {
  Rng rng(20080610);
  workload::ErdosRenyiOptions opts;
  opts.num_nodes = quick ? 2000 : 20000;
  opts.num_edges = quick ? 8000 : 80000;
  opts.num_labels = 6;
  Graph data = workload::MakeErdosRenyi(opts, &rng);
  for (NodeId v = 0; v < static_cast<NodeId>(data.NumNodes()); ++v) {
    data.node(v).attrs.Set("score", Value(int64_t{(v * 13) % 100}));
    if (v % 3 == 0) {
      data.node(v).attrs.Set("tier", Value(v % 6 == 0 ? "gold" : "silver"));
    }
  }
  return data;
}

/// Random connected queries with at least one answer and under the hit cap
/// ("low hits"), per Section 5.2.
inline std::vector<Graph> MakeLowHitConnectedQueries(
    const SyntheticWorkload& w, size_t size, size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Graph> out;
  match::PipelineOptions options;
  options.refine_level = -1;  // Classify under the paper's setting.
  options.match.max_matches = kMaxHits;
  for (size_t attempt = 0; attempt < count * 30 && out.size() < count;
       ++attempt) {
    auto q = workload::ExtractConnectedQuery(w.graph, size, &rng);
    if (!q.ok()) continue;
    algebra::GraphPattern p = algebra::GraphPattern::FromGraph(*q);
    auto matches = match::MatchPattern(p, w.graph, &w.index, options);
    if (!matches.ok() || matches->empty()) continue;
    if (matches->size() >= kLowHitThreshold) continue;
    out.push_back(std::move(q).value());
  }
  return out;
}

/// Mean of log10(x) over the positive entries: the figures plot log-scale
/// reduction ratios, and exponents are also what benchmark counters can
/// display unambiguously (SI suffixes stop at 1e-24).
inline double MeanLog10(const std::vector<double>& xs) {
  double acc = 0;
  size_t n = 0;
  for (double x : xs) {
    if (x <= 0) continue;  // A zero ratio (empty space) contributes log 0.
    acc += std::log10(x);
    ++n;
  }
  if (n == 0) return 0;
  return acc / static_cast<double>(n);
}

/// Geometric mean (exp10 of MeanLog10).
inline double GeoMean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  return std::pow(10.0, MeanLog10(xs));
}

}  // namespace graphql::bench

#endif  // GRAPHQL_BENCH_BENCH_COMMON_H_
