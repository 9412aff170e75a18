#ifndef GRAPHQL_MATCH_PIPELINE_H_
#define GRAPHQL_MATCH_PIPELINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "algebra/matched_graph.h"
#include "algebra/pattern.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "graph/collection.h"
#include "match/cost.h"
#include "match/label_index.h"
#include "match/matcher.h"
#include "match/neighborhood.h"
#include "match/refine.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace graphql::match {

/// How feasible mates are retrieved (Section 4.2 / Figure 4.17).
enum class CandidateMode {
  /// Attribute (label) index + predicate check only — the "Baseline"
  /// retrieval of Section 5.
  kLabelOnly,
  /// Additionally require profile(u) sub-multiset-of profile(v):
  /// "Retrieve by profiles".
  kProfile,
  /// Additionally require the radius-r neighborhood subgraph of u to be
  /// sub-isomorphic to that of v: "Retrieve by subgraphs".
  kNeighborhood,
};

const char* CandidateModeName(CandidateMode mode);

/// The refine_level value that refines on demand: the pipeline searches
/// the retrieved candidates first, under a budget of
/// kAttemptTriesPerCandidate tries per candidate that Algorithm 4.2's
/// first level would test (Sum |Phi(u)| over the pattern nodes with a
/// neighbour). An attempt that ends within the budget is the answer; one
/// that overruns it is discarded, and refinement to the pattern size, the
/// order and an uncapped search follow. A pattern without edges is never
/// refined: Algorithm 4.2 would test nothing.
inline constexpr int kRefineOnDemand = -2;

/// The try budget per candidate of an on-demand attempt: refinement's cost
/// per candidate over the search's cost per try, measured on the refine
/// and search bench lanes (EXPERIMENTS.md, "Refine on demand"). An attempt
/// that overruns wastes at most what refinement costs.
inline constexpr uint64_t kAttemptTriesPerCandidate = 128;

/// Configuration of the full selection pipeline. The default retrieves by
/// profiles and searches in the optimized order, the paper's recommended
/// practical combination (Section 5.2's summary), but runs its global
/// refinement only on demand (kRefineOnDemand); refine_level = -1 is the
/// paper's combination exactly.
struct PipelineOptions {
  CandidateMode candidate_mode = CandidateMode::kProfile;
  /// Refinement level l for Algorithm 4.2: kRefineOnDemand refines to the
  /// pattern size when a budgeted search attempt needs it; -1 (or any other
  /// negative value) always refines to the pattern size (the paper's
  /// experimental setting), 0 never refines, and l >= 1 always refines to
  /// level l.
  int refine_level = kRefineOnDemand;
  /// Dirty-pair marking inside the refinement (ablation knob).
  bool refine_use_marking = true;
  /// Greedy cost-based search order (Section 4.4) vs declaration order.
  bool optimize_order = true;
  OrderOptions order;
  MatchOptions match;
  /// Intra-query parallelism: total workers (including the calling thread)
  /// for the retrieve and search stages; refinement always runs on the
  /// calling thread. 0 and 1 both run every stage on the calling thread
  /// alone; N > 1 adds pool threads, capped at the pool's capacity.
  /// Defaults to $GQL_THREADS (0 if unset). Every thread count returns the
  /// serial answer — matches, their order, and governed partial results —
  /// except where a deadline or cancel trip lands (DESIGN.md §6e).
  int num_threads = DefaultNumThreads();
  /// Pool serving the parallel stages; null = the process-wide shared pool.
  ThreadPool* pool = nullptr;
  /// Optional per-query resource governor; null = ungoverned. All stages
  /// charge it (retrieve/refine/neighborhood/search); a refinement trip on
  /// a degradable budget falls back to the unrefined candidate sets
  /// (pruning lost, result set preserved), any other trip ends the query
  /// with the matches found so far. Also installed into `match.governor`
  /// when that is null.
  ResourceGovernor* governor = nullptr;
  /// Metric sink for pipeline counters (search steps, pruning hits, ...).
  /// Stages count into PipelineStats, and each MatchPattern or
  /// RetrieveCandidates call writes its counts here once, so the default
  /// global registry costs a handful of atomic adds per call. Null
  /// disables counter emission entirely.
  obs::MetricsRegistry* metrics = &obs::MetricsRegistry::Global();
  /// Destination for per-query trace trees (EXPLAIN/PROFILE). Null (the
  /// default) disables tracing; stage timings in PipelineStats are still
  /// measured. When set, MatchPattern records a "match" span with
  /// retrieve/refine/order/search children whose durations are exactly the
  /// PipelineStats stage micros.
  obs::Tracer* tracer = nullptr;
};

/// Counts of the retrieve stage, summed over calls.
struct RetrieveStats {
  /// Index-less retrievals, where every data node is a base candidate.
  uint64_t scans = 0;
  uint64_t feasible_hits = 0;    ///< Base candidates the node test kept.
  uint64_t feasible_misses = 0;  ///< Base candidates it rejected.
  /// Feasible candidates the candidate mode's local pruning (profiles or
  /// neighborhood subgraphs) rejected.
  uint64_t pruned = 0;
  /// The neighborhood tests run. They run on the calling thread, so these
  /// counts equal serial's at any thread count.
  NeighborhoodStats neighborhood;
  uint64_t pred_compiled = 0;  ///< Pushed conjuncts compiled to bytecode.
  uint64_t pred_fallback = 0;  ///< Pushed conjuncts left to the AST.

  void Add(const RetrieveStats& other);
};

/// Per-stage measurements for one MatchPattern run; the benchmark harness
/// prints these to regenerate Figures 4.20-4.23. They are the only
/// accumulator of selection counters: the metrics registry receives one
/// call's stats at a time.
struct PipelineStats {
  std::vector<size_t> size_attr;       ///< |Phi0(u)|: label+predicate only.
  std::vector<size_t> size_retrieved;  ///< After profile/subgraph pruning.
  std::vector<size_t> size_refined;    ///< After global refinement.
  int64_t us_retrieve = 0;
  int64_t us_refine = 0;
  int64_t us_order = 0;
  int64_t us_search = 0;
  RetrieveStats retrieve;
  SearchStats search;
  RefineStats refine;
  size_t num_matches = 0;
  std::vector<NodeId> order;
  /// Refinement tripped a degradable budget and the pipeline fell back to
  /// the unrefined candidate sets (search still ran to completion).
  bool refine_degraded = false;
  /// Calls that ran refinement, forced or on demand.
  size_t members_refined = 0;
  /// On demand: the calls that ran a budgeted search attempt, the tries
  /// those attempts made (their `steps`) and the sum of their budgets. An
  /// attempt that overran refined its call, so in this mode
  /// members_refined counts the overruns.
  size_t attempts = 0;
  uint64_t attempt_tries = 0;
  uint64_t attempt_budget = 0;
  /// Workers serving the stages (ResolveWorkers; 0 or 1 = calling thread).
  int threads = 0;
  /// Work-stealing events summed across the retrieve and search stages.
  uint64_t tasks_stolen = 0;
  /// MatchPattern invocations accumulated into this stats object (a
  /// collection select runs one per member graph). All counters below and
  /// the us_* stage timers above accumulate across calls; the size_* and
  /// order vectors reflect the most recent call.
  size_t members = 0;
  /// Candidate counts summed over pattern nodes and calls — the "before /
  /// after refine" totals EXPLAIN ANALYZE prints.
  uint64_t sum_candidates_attr = 0;
  uint64_t sum_candidates_retrieved = 0;
  uint64_t sum_candidates_refined = 0;
  /// Estimated cost of the chosen search order (EstimateOrderCost over the
  /// refined candidate sizes), summed across calls; compare with
  /// search.steps for estimated-vs-actual.
  double est_cost = 0.0;

  /// Adds a later call's stats: counters and timers add, the per-call
  /// fields (size_*, order, num_matches, threads) become the later call's.
  void Add(PipelineStats later);

  /// Search-space size as a product of per-node candidate counts.
  static double Space(const std::vector<size_t>& sizes);
  double SpaceAttr() const { return Space(size_attr); }
  double SpaceRetrieved() const { return Space(size_retrieved); }
  double SpaceRefined() const { return Space(size_refined); }
  int64_t TotalMicros() const {
    return us_retrieve + us_refine + us_order + us_search;
  }
};

/// Retrieval of feasible mates (first phase of Algorithm 4.1 + Section 4.2
/// pruning) over the data graph's compiled snapshot. Exposed separately so
/// benchmarks can measure it; stats may be null. The call's counts are
/// added to `stats` and written to `options.metrics` once. When `index` is
/// null, every data node is a base candidate and the scan runs on the
/// calling thread with no candidate-mode pruning (label-only).
std::vector<std::vector<NodeId>> RetrieveCandidates(
    const algebra::GraphPattern& pattern, const Graph& data,
    const LabelIndex* index, const PipelineOptions& options,
    PipelineStats* stats = nullptr);

/// Full selection over a single large graph: retrieve, refine, order,
/// search. This is sigma_P({G}) with all graph-specific optimizations. The
/// call's stats are added to `stats` and written to `options.metrics` once.
Result<std::vector<algebra::MatchedGraph>> MatchPattern(
    const algebra::GraphPattern& pattern, const Graph& data,
    const LabelIndex* index, const PipelineOptions& options = {},
    PipelineStats* stats = nullptr);

/// The selection operator sigma_P(C) over a collection of graphs
/// (Section 3.3): matches the pattern against every member; exhaustive
/// mode yields every binding, otherwise at most one per member graph.
/// Returned MatchedGraphs reference the collection's graphs.
Result<std::vector<algebra::MatchedGraph>> SelectCollection(
    const algebra::GraphPattern& pattern, const GraphCollection& collection,
    const PipelineOptions& options = {});

/// Selection with a disjunctive/recursive pattern: a member graph matches
/// if any derived alternative matches (Definition 4.2). Alternatives are
/// tried in order; without exhaustive mode a member stops at the first
/// alternative that matches it.
Result<std::vector<algebra::MatchedGraph>> SelectCollectionAny(
    std::span<const algebra::GraphPattern> alternatives,
    const GraphCollection& collection, const PipelineOptions& options = {});

}  // namespace graphql::match

#endif  // GRAPHQL_MATCH_PIPELINE_H_
