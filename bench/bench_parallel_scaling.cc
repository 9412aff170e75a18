// Intra-query parallel selection scaling: wall-clock speedup of the
// work-stealing retrieve/search pipeline over the serial path.
//
// Workload: the Erdos-Renyi 20k/80k 6-label graph with per-node "score" and
// "tier" columns that bench_selection_vectorized also runs, and low-hit
// cycle queries with node predicates. Retrieval uses profiles and
// refinement runs to the full level. Refinement runs on the calling thread
// at every thread count, so its time is a serial floor under the sweep.
// The search keeps declaration order, which gives every query a large
// search for the workers to split; the lists would equal serial under the
// cost-based order too.
//
// Unlike the figure benches this is a plain binary (no google-benchmark):
// it sweeps a thread count, verifies that every parallel run produces a
// bit-identical match list (same bindings, same order) to the serial run,
// prints a speedup table, and dumps machine-readable results as JSON for
// tools/summarize_bench.py. Exits 2 when a match list diverges.
//
// Knobs (environment / argv):
//   GQL_BENCH_PARALLEL_JSON   output path (default BENCH_parallel.json)
//   GQL_BENCH_PARALLEL_REPS   timed repetitions per thread count, best-of
//                             (default 3; 1 with --quick)
//   --quick / GQL_BENCH_QUICK the 2k/8k graph (CI smoke)
//   GQL_BENCH_THREADS is ignored here: the sweep sets num_threads itself.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"

namespace graphql::bench {
namespace {

constexpr int kThreadSweep[] = {0, 1, 2, 4, 8};

/// Cycles over the frequent labels, with score and tier
/// predicates on some nodes: few answers, so each query searches its
/// whole space and serial and parallel runs do the same search work.
std::vector<algebra::GraphPattern> MakeQueries() {
  std::vector<algebra::GraphPattern> out;
  for (const char* source : {
           R"(graph P { node a <label="L0">; node b <label="L0">;
                        node c <label="L0">; node d <label="L0">;
                        node e <label="L0">;
                        edge (a, b); edge (b, c); edge (c, d); edge (d, e);
                        edge (e, a); })",
           R"(graph P { node a <label="L0"> where score > 20;
                        node b <label="L1">; node c <label="L0">;
                        node d <label="L0">; node e <label="L1">;
                        edge (a, b); edge (b, c); edge (c, d); edge (d, e);
                        edge (e, a); })",
           R"(graph P { node a <label="L0"> where score < 50;
                        node b <label="L0">; node c <label="L0">;
                        node d <label="L0"> where score >= 50;
                        node e <label="L0">; node f <label="L0">;
                        edge (a, b); edge (b, c); edge (c, d); edge (d, e);
                        edge (e, f); edge (f, a); })",
           R"(graph P { node a <label="L0">; node b <label="L1">;
                        node c <label="L0">; node d <label="L2">;
                        node e <label="L0">; node f <label="L1">;
                        edge (a, b); edge (b, c); edge (c, d); edge (d, e);
                        edge (e, f); edge (f, a); })",
           R"(graph P { node a <label="L0"> where tier == "gold";
                        node b <label="L0">; node c <label="L0">;
                        node d <label="L0">; node e <label="L0">;
                        node f <label="L0"> where score >= 50;
                        edge (a, b); edge (b, c); edge (c, d); edge (d, e);
                        edge (e, f); edge (f, a); })",
           R"(graph P { node a <label="L1"> where score < 30;
                        node b <label="L0">; node c <label="L0">;
                        node d <label="L2">; node e <label="L0">;
                        edge (a, b); edge (b, c); edge (c, d); edge (d, e);
                        edge (e, a); })",
       }) {
    auto p = algebra::GraphPattern::Parse(source);
    if (!p.ok()) {
      std::fprintf(stderr, "bad query: %s\n", p.status().ToString().c_str());
      std::exit(1);
    }
    out.push_back(std::move(p).value());
  }
  return out;
}

/// One match list rendered as a comparable token: bindings and their order
/// must agree exactly for two runs to count as identical.
std::string Signature(const std::vector<algebra::MatchedGraph>& matches) {
  std::string sig;
  for (const algebra::MatchedGraph& m : matches) {
    for (NodeId v : m.node_mapping) sig += std::to_string(v) + ",";
    for (EdgeId e : m.edge_mapping) sig += std::to_string(e) + ";";
    sig += "|";
  }
  return sig;
}

struct SweepResult {
  int threads = 0;
  double ms = 0;                ///< Best-of-reps total wall time.
  double ms_retrieve = 0;       ///< Stage sums from the best rep.
  double ms_refine = 0;
  double ms_search = 0;
  uint64_t tasks_stolen = 0;
  size_t matches = 0;
  bool identical = true;        ///< Match lists == serial run's.
};

SweepResult RunSweep(const Graph& data, const match::LabelIndex& index,
                     const std::vector<algebra::GraphPattern>& queries,
                     int threads, int reps,
                     const std::vector<std::string>* serial_sigs,
                     std::vector<std::string>* sigs_out) {
  SweepResult r;
  r.threads = threads;
  r.ms = -1;
  for (int rep = 0; rep < reps; ++rep) {
    double ms_retrieve = 0;
    double ms_refine = 0;
    double ms_search = 0;
    uint64_t stolen = 0;
    size_t total_matches = 0;
    std::vector<std::string> sigs;
    sigs.reserve(queries.size());
    auto t0 = std::chrono::steady_clock::now();
    for (const algebra::GraphPattern& p : queries) {
      match::PipelineOptions o;
      o.candidate_mode = match::CandidateMode::kProfile;
      o.refine_level = -1;
      o.optimize_order = false;
      o.match.max_matches = kMaxHits;
      o.num_threads = threads;
      o.metrics = nullptr;
      match::PipelineStats stats;
      auto m = match::MatchPattern(p, data, &index, o, &stats);
      ms_retrieve += stats.us_retrieve / 1000.0;
      ms_refine += stats.us_refine / 1000.0;
      ms_search += stats.us_search / 1000.0;
      stolen += stats.tasks_stolen;
      if (m.ok()) {
        total_matches += m->size();
        sigs.push_back(Signature(*m));
      } else {
        sigs.push_back("error:" + m.status().ToString());
      }
    }
    auto t1 = std::chrono::steady_clock::now();
    double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r.ms < 0 || ms < r.ms) {
      r.ms = ms;
      r.ms_retrieve = ms_retrieve;
      r.ms_refine = ms_refine;
      r.ms_search = ms_search;
      r.tasks_stolen = stolen;
    }
    r.matches = total_matches;
    if (serial_sigs != nullptr && sigs != *serial_sigs) r.identical = false;
    if (sigs_out != nullptr && rep == 0) *sigs_out = std::move(sigs);
  }
  return r;
}

int Main(int argc, char** argv) {
  bool quick = std::getenv("GQL_BENCH_QUICK") != nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  int reps = quick ? 1 : 3;
  if (const char* v = std::getenv("GQL_BENCH_PARALLEL_REPS")) {
    int n = std::atoi(v);
    if (n > 0) reps = n;
  }
  const char* size = quick ? "2k/8k" : "20k/80k";
  std::printf("building workload (ER %s, 6 labels, score/tier attrs, "
              "profiles + full refine, declaration order)...\n",
              size);
  Graph data = MakeScoredErdosRenyi(quick);
  match::LabelIndex index = match::LabelIndex::Build(data);
  std::vector<algebra::GraphPattern> queries = MakeQueries();
  unsigned hw = std::thread::hardware_concurrency();
  std::printf("%zu queries, %d reps per thread count (best-of), "
              "%u hardware threads\n",
              queries.size(), reps, hw);
  if (hw < 2) {
    std::printf("NOTE: single-core machine — speedup > 1 is not "
                "achievable; this run only verifies determinism.\n");
  }
  std::printf("\n");

  std::vector<std::string> serial_sigs;
  std::vector<SweepResult> results;
  for (int threads : kThreadSweep) {
    SweepResult r =
        RunSweep(data, index, queries, threads, reps,
                 threads == 0 ? nullptr : &serial_sigs,
                 threads == 0 ? &serial_sigs : nullptr);
    results.push_back(r);
  }

  double serial_ms = results.front().ms;
  std::printf("%8s %10s %9s %12s %10s %10s %10s %6s\n", "threads", "ms",
              "speedup", "stolen", "retr_ms", "refine_ms", "search_ms",
              "exact");
  bool all_identical = true;
  for (const SweepResult& r : results) {
    all_identical = all_identical && r.identical;
    std::printf("%8d %10.2f %8.2fx %12llu %10.2f %10.2f %10.2f %6s\n",
                r.threads, r.ms, serial_ms / r.ms,
                static_cast<unsigned long long>(r.tasks_stolen),
                r.ms_retrieve, r.ms_refine, r.ms_search,
                r.identical ? "yes" : "NO");
  }
  std::printf("\nmatch lists %s across the sweep (%zu matches)\n",
              all_identical ? "bit-identical" : "DIVERGED",
              results.front().matches);

  const char* path = std::getenv("GQL_BENCH_PARALLEL_JSON");
  std::string out_path =
      path != nullptr && *path != '\0' ? path : "BENCH_parallel.json";
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n  \"bench\": \"parallel_scaling\",\n"
      << "  \"stamp\": " << BuildStampJson() << ",\n"
      << "  \"workload\": \"erdos-renyi " << size
      << ", 6 labels, score/tier attrs, low-hit cycles, profiles"
      << " + full refine, declaration order\",\n"
      << "  \"hardware_concurrency\": " << hw << ",\n"
      << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
      << "  \"queries\": " << queries.size() << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"matches\": " << results.front().matches << ",\n"
      << "  \"identical\": " << (all_identical ? "true" : "false") << ",\n"
      << "  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const SweepResult& r = results[i];
    out << "    {\"threads\": " << r.threads << ", \"ms\": " << r.ms
        << ", \"speedup\": " << serial_ms / r.ms
        << ", \"tasks_stolen\": " << r.tasks_stolen
        << ", \"ms_retrieve\": " << r.ms_retrieve
        << ", \"ms_refine\": " << r.ms_refine
        << ", \"ms_search\": " << r.ms_search
        << ", \"identical\": " << (r.identical ? "true" : "false") << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return all_identical ? 0 : 2;
}

}  // namespace
}  // namespace graphql::bench

int main(int argc, char** argv) { return graphql::bench::Main(argc, argv); }
