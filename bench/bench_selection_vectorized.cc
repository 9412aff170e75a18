// Selection ablation over the compiled snapshot: the isolated retrieve
// stage as MatchPattern runs it (RetrieveCandidates: the selection plan's
// per-candidate test of what each base list does not already guarantee),
// with the label index ("plan") and without one ("index-less", every node
// a base candidate, as for the members of a collection select), against
// the reference lane ("ast"), which scans the label index's base lists
// with the AST feasible-mate test GraphPattern::NodeCompatible. Both
// lanes must keep exactly the reference's candidates, or the bench exits
// 2. The full MatchPattern wall time is reported once, for the
// end-to-end view, and the results are dumped for
// tools/summarize_bench.py.
//
// The workload mixes label-only patterns (nothing left to check once the
// label posting list is the base) with attribute-predicate patterns
// inside and outside the bytecode ISA, so the sweep exercises the
// compiled programs, the AST-interpreter fallback and the dense-column
// lookups.
//
// Knobs (environment / argv):
//   GQL_BENCH_SELECTION_JSON  output path (default BENCH_selection.json)
//   GQL_BENCH_SELECTION_REPS  timed repetitions per lane, best-of (default 3)
//   --quick / GQL_BENCH_QUICK smaller graph, 1 rep (CI smoke)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "match/pipeline.h"

namespace graphql::bench {
namespace {

constexpr size_t kMaxMatchesPerQuery = 100;

/// Isolated-selection lanes; the first is the reference.
enum class Lane { kAst, kPlan, kIndexLess };
constexpr Lane kLanes[] = {Lane::kAst, Lane::kPlan, Lane::kIndexLess};

const char* LaneName(Lane lane) {
  switch (lane) {
    case Lane::kAst:
      return "ast";
    case Lane::kPlan:
      return "plan";
    case Lane::kIndexLess:
      return "index-less";
  }
  return "?";
}

std::vector<algebra::GraphPattern> MakeQueries() {
  std::vector<algebra::GraphPattern> out;
  for (const char* source : {
           // Label-only: pure structural columns.
           R"(graph P { node a <label="L0">; node b <label="L1">;
                        node c <label="L2">;
                        edge (a, b); edge (b, c); edge (c, a); })",
           // Comparison predicates (compiled bytecode).
           R"(graph P { node a <label="L0"> where score > 50;
                        node b <label="L1"> where score <= 80;
                        edge (a, b); })",
           // Interned string equality + dense unlabeled node.
           R"(graph P { node a where tier == "gold"; node b <label="L2">;
                        edge (a, b); })",
           // Arithmetic predicate: AST-interpreter fallback.
           R"(graph P { node a <label="L3"> where score + 0 > 50; node b;
                        edge (a, b); })",
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

/// The base list retrieval scans for pattern node u (no attribute index
/// in this workload): the label list, or every node for wildcards.
const std::vector<NodeId>& BaseList(const algebra::GraphPattern& p, NodeId u,
                                    const match::LabelIndex& index,
                                    const std::vector<NodeId>& all_nodes) {
  std::string_view label = p.graph().Label(u);
  return label.empty() ? all_nodes : index.NodesWithLabel(label);
}

/// Label-only candidate lists of one query under one lane.
std::vector<std::vector<NodeId>> Select(
    Lane lane, const algebra::GraphPattern& p, const Graph& data,
    const match::LabelIndex& index, const std::vector<NodeId>& all_nodes) {
  if (lane != Lane::kAst) {
    match::PipelineOptions o;
    o.candidate_mode = match::CandidateMode::kLabelOnly;
    o.metrics = nullptr;
    return match::RetrieveCandidates(
        p, data, lane == Lane::kPlan ? &index : nullptr, o);
  }
  const size_t k = p.graph().NumNodes();
  std::vector<std::vector<NodeId>> out(k);
  for (size_t u = 0; u < k; ++u) {
    NodeId pu = static_cast<NodeId>(u);
    for (NodeId v : BaseList(p, pu, index, all_nodes)) {
      if (p.NodeCompatible(pu, data, v)) out[u].push_back(v);
    }
  }
  return out;
}

struct LaneResult {
  double retrieve_ms = -1;  ///< Best-of-reps, isolated retrieve stage.
  size_t candidates = 0;    ///< Sum of retrieved candidate-set sizes.
  std::vector<std::vector<std::vector<NodeId>>> lists;  ///< Per query.
};

LaneResult RunLane(Lane lane, const Graph& data,
                   const match::LabelIndex& index,
                   const std::vector<algebra::GraphPattern>& queries,
                   int reps) {
  std::vector<NodeId> all_nodes(data.NumNodes());
  for (size_t v = 0; v < all_nodes.size(); ++v) {
    all_nodes[v] = static_cast<NodeId>(v);
  }
  LaneResult r;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<std::vector<std::vector<NodeId>>> lists;
    auto t0 = std::chrono::steady_clock::now();
    for (const algebra::GraphPattern& p : queries) {
      lists.push_back(Select(lane, p, data, index, all_nodes));
    }
    auto t1 = std::chrono::steady_clock::now();
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r.retrieve_ms < 0 || ms < r.retrieve_ms) r.retrieve_ms = ms;
    r.lists = std::move(lists);
  }
  for (const auto& query : r.lists) {
    for (const auto& c : query) r.candidates += c.size();
  }
  return r;
}

int Main(int argc, char** argv) {
  bool quick = std::getenv("GQL_BENCH_QUICK") != nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  int reps = quick ? 1 : 3;
  if (const char* v = std::getenv("GQL_BENCH_SELECTION_REPS")) {
    int n = std::atoi(v);
    if (n > 0) reps = n;
  }

  std::printf("building synthetic workload (ER %s, 6 labels, score/tier "
              "attrs)...\n",
              quick ? "2k/8k" : "20k/80k");
  Graph data = MakeScoredErdosRenyi(quick);
  match::LabelIndex index = match::LabelIndex::Build(data);
  std::vector<algebra::GraphPattern> queries = MakeQueries();
  // Warm the snapshot outside the timed region; the plan lane runs over it.
  data.snapshot();

  std::vector<LaneResult> lanes;
  for (Lane lane : kLanes) {
    lanes.push_back(RunLane(lane, data, index, queries, reps));
  }
  bool identical = true;
  for (const LaneResult& lane : lanes) {
    identical = identical && lane.lists == lanes[0].lists;
  }

  // Full pipeline, for the end-to-end view.
  double match_ms = -1;
  size_t matches = 0;
  for (int rep = 0; rep < reps; ++rep) {
    match::PipelineOptions o;
    o.candidate_mode = match::CandidateMode::kProfile;
    o.match.max_matches = kMaxMatchesPerQuery;
    o.metrics = nullptr;
    matches = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (const algebra::GraphPattern& p : queries) {
      auto m = match::MatchPattern(p, data, &index, o);
      if (m.ok()) matches += m->size();
    }
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    if (match_ms < 0 || ms < match_ms) match_ms = ms;
  }

  auto speedup = [&](size_t i) {
    return lanes[i].retrieve_ms > 0
               ? lanes[0].retrieve_ms / lanes[i].retrieve_ms
               : 0.0;
  };
  std::printf("\n%10s %12s %12s %10s\n", "lane", "retrieve_ms", "candidates",
              "vs_ast");
  for (size_t i = 0; i < lanes.size(); ++i) {
    std::printf("%10s %12.3f %12zu %9.2fx\n", LaneName(kLanes[i]),
                lanes[i].retrieve_ms, lanes[i].candidates, speedup(i));
  }
  std::printf("\nMatchPattern: %.2f ms, %zu matches\n", match_ms, matches);
  std::printf("candidate lists %s across lanes\n",
              identical ? "bit-identical" : "DIVERGED");

  const char* path = std::getenv("GQL_BENCH_SELECTION_JSON");
  std::string out_path =
      path != nullptr && *path != '\0' ? path : "BENCH_selection.json";
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n  \"bench\": \"selection_vectorized\",\n"
      << "  \"stamp\": " << BuildStampJson() << ",\n"
      << "  \"workload\": \"erdos-renyi " << (quick ? "2k/8k" : "20k/80k")
      << ", 6 labels, score/tier attrs, " << queries.size()
      << " queries, max " << kMaxMatchesPerQuery << " matches each\",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
      << "  \"identical\": " << (identical ? "true" : "false") << ",\n"
      << "  \"match_ms\": " << match_ms << ",\n"
      << "  \"matches\": " << matches << ",\n"
      << "  \"lanes\": [\n";
  for (size_t i = 0; i < lanes.size(); ++i) {
    out << "    {\"lane\": \"" << LaneName(kLanes[i])
        << "\", \"retrieve_ms\": " << lanes[i].retrieve_ms
        << ", \"candidates\": " << lanes[i].candidates
        << ", \"retrieve_speedup\": " << speedup(i) << "}"
        << (i + 1 < lanes.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());

  return identical ? 0 : 2;
}

}  // namespace
}  // namespace graphql::bench

int main(int argc, char** argv) { return graphql::bench::Main(argc, argv); }
