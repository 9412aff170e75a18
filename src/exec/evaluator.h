#ifndef GRAPHQL_EXEC_EVALUATOR_H_
#define GRAPHQL_EXEC_EVALUATOR_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "algebra/graph_template.h"
#include "algebra/pattern.h"
#include "common/governor.h"
#include "common/result.h"
#include "exec/plan_cache.h"
#include "exec/registry.h"
#include "graph/collection.h"
#include "lang/ast.h"
#include "match/pipeline.h"
#include "motif/builder.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "sema/analyzer.h"

namespace graphql::exec {

/// What resource governance did to a query: whether a limit tripped (and
/// which), what was degraded along the way, and the resources consumed.
/// Populated on every governed Run — including successful ones, where it
/// just carries the consumption numbers.
struct LimitReport {
  bool tripped = false;              ///< A governor limit ended the query.
  StatusCode code = StatusCode::kOk; ///< kDeadlineExceeded / kCancelled /
                                     ///< kResourceExhausted when tripped.
  TripKind kind = TripKind::kNone;
  GovernPoint point = GovernPoint::kOther;  ///< Stage that hit the limit.
  std::string message;               ///< Human-readable trip description.
  bool truncated = false;            ///< A selection hit max_matches.
  /// Graceful-degradation events (e.g. refinement falling back to the
  /// unrefined candidate sets). Degradations preserve the result set.
  std::vector<std::string> degradations;
  uint64_t steps_used = 0;
  size_t peak_memory_bytes = 0;
  int64_t elapsed_ms = 0;

  /// True when the returned results may be incomplete (a trip or a cap).
  bool Partial() const { return tripped || truncated; }
  /// Multi-line rendering for shells/logs; empty when nothing noteworthy.
  std::string ToString() const;
};

/// Measured execution of one statement — the "actual" side of EXPLAIN
/// ANALYZE. Filled for every statement a Run executes; only FLWR
/// statements carry the pipeline breakdown (the rest report wall time).
/// All stage numbers are sums over the statement's MatchPattern calls
/// (one per member graph per alternative).
struct StatementActuals {
  bool is_flwr = false;
  int64_t wall_us = 0;      ///< Statement span duration.
  int64_t us_retrieve = 0;  ///< Stage micros, summed over members.
  int64_t us_refine = 0;
  int64_t us_order = 0;
  int64_t us_search = 0;
  size_t members = 0;       ///< MatchPattern invocations.
  /// Candidate counts summed over pattern nodes and members: after the
  /// attribute stage, after retrieval pruning, after global refinement.
  uint64_t candidates_attr = 0;
  uint64_t candidates_retrieved = 0;
  uint64_t candidates_refined = 0;
  /// Cost-model estimate for the chosen search orders (Definition 4.13),
  /// comparable against the actual `steps`.
  double est_cost = 0.0;
  uint64_t steps = 0;
  uint64_t edge_checks = 0;
  uint64_t backtracks = 0;
  uint64_t pred_rejects = 0;  ///< Prefixes a placed residual conjunct cut.
  uint64_t matches = 0;
  uint64_t snapshot_probes = 0;  ///< CSR edge probes served by snapshots.
  int threads = 0;
  uint64_t tasks_stolen = 0;
  bool refine_degraded = false;
  size_t members_refined = 0;  ///< Calls that ran refinement.
  /// On-demand refinement: the budgeted search attempts, their tries and
  /// the sum of their budgets (match::PipelineStats).
  size_t attempts = 0;
  uint64_t attempt_tries = 0;
  uint64_t attempt_budget = 0;
};

/// Result of running a program: the final values of `let`-accumulated /
/// assigned graph variables, plus every graph produced by `return`-style
/// FLWR expressions, in order.
struct QueryResult {
  std::unordered_map<std::string, Graph> variables;
  GraphCollection returned;
  /// Resource-governance outcome for this run (see LimitReport). When
  /// `limits.tripped`, `returned`/`variables` hold the partial results
  /// produced before the trip.
  LimitReport limits;
  /// When the Evaluator ran with profiling enabled: the program's trace
  /// tree plus the metric deltas of this run, as
  /// {"trace": [...], "metrics": {...}} (PROFILE in gqlsh renders the
  /// text twin below).
  std::string profile_json;
  /// Human-readable rendering of the same data.
  std::string profile_text;
  /// Static-analysis findings for the program (sema::Analyze, run before
  /// execution). Errors predict runtime failures but do not by themselves
  /// abort the run — the runtime still fails with its own message when it
  /// reaches the diagnosed construct; warnings (lints, provable
  /// unsatisfiability) are informational.
  std::vector<sema::Diagnostic> diagnostics;
  /// One entry per statement executed (in program order); feeds EXPLAIN
  /// ANALYZE and the flight recorder.
  std::vector<StatementActuals> actuals;
  /// Micros spent in the front-end for this run — parse, semantic
  /// analysis, pattern compilation, plan-cache bookkeeping. Filled by
  /// RunSource; a plan-cache hit reduces it to one lexer pass. Plain Run
  /// leaves it 0 (the caller already parsed).
  int64_t front_end_us = 0;
  /// Micros of the execution phase (the program span: statements, match
  /// pipeline, instantiation, flight recording).
  int64_t exec_us = 0;
  /// Plan-cache provenance of this run: "hit", "miss", "uncacheable"
  /// (impure program — mutates session state — or unlexable text), or
  /// "off" (cache disabled, or entered through Run with a pre-parsed
  /// program).
  std::string plan_source = "off";
};

/// One $N placeholder occurrence in a prepared statement, located in the
/// *substituted* text: `line`/`column` are the 1-based position where the
/// rendered literal begins (rendered literals never contain newlines —
/// strings escape them — so the position is exactly where the lexer puts
/// the literal token's span), and `index` is the 0-based parameter it was
/// rendered from. Produced by server::SubstituteParams, consumed by
/// Evaluator::RunPrepared.
struct PreparedParam {
  int line = 0;
  int column = 0;
  size_t index = 0;
};

/// The GraphQL query evaluator: executes programs of graph declarations,
/// assignments, and FLWR expressions (Section 3.4) against a document
/// registry.
///
/// Semantics:
///  - `graph P {...};` registers a named pattern/motif for later use.
///  - `C := graph {...};` instantiates the (parameter-free) template and
///    binds the variable C.
///  - `for P [exhaustive] in doc("D") [where w] return T;` selects matches
///    of P from D, filters by w, and appends one instantiation of T per
///    match to the result.
///  - `... let C := T;` folds the matches into C: each iteration
///    instantiates T with the current C and the match bound (Figure 4.12's
///    accumulating co-authorship construction).
class Evaluator {
 public:
  /// `docs` may be null (programs then cannot reference doc("...")).
  /// Reads $GQL_TRACE_EXPORT as the initial Chrome-trace export path.
  explicit Evaluator(const DocumentRegistry* docs);

  /// Selection options used for pattern matching inside FLWR loops.
  match::PipelineOptions* mutable_match_options() { return &match_options_; }

  /// Per-query resource limits (0 = unlimited); applied by Arm()ing the
  /// governor at the start of every Run.
  void set_limits(const GovernorLimits& limits) { limits_ = limits; }
  GovernorLimits* mutable_limits() { return &limits_; }

  /// The evaluator's governor. Exposed so another thread (or a signal
  /// handler) can Cancel() the running query, and so tests can inject
  /// faults via set_fault_injector(). Re-armed by each Run.
  ResourceGovernor* governor() { return &governor_; }

  /// Build options for motif derivation (recursion depth etc.).
  motif::BuildOptions* mutable_build_options() { return &build_options_; }

  /// Runs a parsed program. State (variables, registered patterns)
  /// persists across calls on the same Evaluator.
  ///
  /// Every Run is preceded by semantic analysis: diagnostics land in
  /// QueryResult::diagnostics, and FLWR statements the analysis proves
  /// unsatisfiable skip the match pipeline entirely (the `let` accumulator
  /// is still bound, so downstream statements see the same state as a
  /// zero-match execution). Each pruned statement increments the
  /// `sema.pruned.unsat` counter.
  Result<QueryResult> Run(const lang::Program& program);

  /// Parses and runs source text. When the plan cache is enabled and the
  /// text's normalized shape + literal signature matches a plan compiled
  /// at the current epoch, the parse/sema/pattern-compile front-end is
  /// skipped entirely (plan_cache.hit; QueryResult::plan_source = "hit").
  Result<QueryResult> RunSource(std::string_view source);

  /// Runs one execution of a prepared statement. `template_text` is the
  /// prepared source with its $N placeholders intact; `substituted` is the
  /// same text with every placeholder replaced by the rendered literal of
  /// params[N-1]; `sites` records where in `substituted` each rendered
  /// literal begins (1-based line/column, matching lexer spans) and which
  /// parameter it came from.
  ///
  /// Unlike RunSource — where every distinct literal value compiles and
  /// caches its own plan — all executions of one prepared template share a
  /// single cache entry keyed on the template itself (plus the parameter
  /// *types*). The cold run records which literal Expr nodes the
  /// parameters landed on (CachedPlan::param_slots); a hit patches those
  /// Values in place and replays the compiled plan, so rebinding $1 from
  /// "SIGMOD" to "VLDB" skips the whole front-end.
  ///
  /// Patching is only sound where the execution pipeline reads the literal
  /// per run: where-clause predicates (FLWR-level, graph/node/edge-level —
  /// routed into pattern predicates as shared Expr nodes and evaluated at
  /// match time) and return/let templates (instantiated from the AST every
  /// run). A parameter that lands anywhere else — a pattern tuple literal
  /// (baked into attribute requirements at compile time), a doc("...")
  /// name (consumed by the parser) — is detected on the cold run and the
  /// execution falls back to RunSource(substituted), i.e. per-value cache
  /// entries (plan_cache.prepared_fallback counts these). Value-dependent
  /// analysis (unsatisfiability pruning) is disabled for shared prepared
  /// plans; see CachedPlan::parameterized.
  Result<QueryResult> RunPrepared(std::string_view template_text,
                                  std::string_view substituted,
                                  const std::vector<PreparedParam>& sites,
                                  const std::vector<Value>& params);

  /// When enabled, every Run records a per-statement trace tree (FLWR
  /// selection down to the retrieve/refine/order/search stages) and fills
  /// QueryResult::profile_json / profile_text. Off by default: queries
  /// then pay only the registry's per-stage counter flushes.
  void set_profiling(bool on) { profiling_ = on; }
  bool profiling() const { return profiling_; }

  /// Session-local metric registry fed by all selections this Evaluator
  /// runs (unless mutable_match_options()->metrics was redirected).
  obs::MetricsRegistry* metrics() { return &metrics_; }

  /// The session's flight recorder: every Run appends one QueryRecord
  /// (wall/CPU time, per-stage micros, governor outcome, normalized query
  /// shape); runs over the slow threshold — or tripped by the governor —
  /// additionally retain their full trace tree. See obs::FlightRecorder.
  /// When a shared recorder was installed (the query server points every
  /// session at one process-wide recorder), that one is returned instead
  /// of the built-in per-evaluator ring.
  obs::FlightRecorder* recorder() {
    return shared_recorder_ != nullptr ? shared_recorder_ : &recorder_;
  }
  const obs::FlightRecorder* recorder() const {
    return shared_recorder_ != nullptr ? shared_recorder_ : &recorder_;
  }

  /// Routes flight records into an external recorder shared across
  /// evaluators (null restores the built-in one). The recorder is
  /// thread-safe; the server shares one across all sessions so `:recent`/
  /// `:slow` see the whole process's traffic.
  void set_shared_recorder(obs::FlightRecorder* recorder) {
    shared_recorder_ = recorder;
  }

  /// Label stamped into every QueryRecord this evaluator appends
  /// (QueryRecord::session) — the server sets "s<connection-id>", gqlsh
  /// sets "shell". Empty (default) leaves records unattributed.
  void set_session_label(std::string label) {
    session_label_ = std::move(label);
  }
  const std::string& session_label() const { return session_label_; }

  /// Does nothing. Label indexes live on the snapshots they index (see
  /// match::LabelIndex::Shared) and cached plans check their documents on
  /// every hit, so a store version change leaves this evaluator nothing
  /// to drop. Kept because perfbench/traced.cc calls it where it mirrors
  /// the server's per-query steps.
  void InvalidateIndexCache() {}

  /// Plan cache over RunSource: front-end artifacts (parsed AST, semantic
  /// analysis, compiled pattern alternatives) keyed on normalized query
  /// shape + literal signature. Entries are invalidated by any
  /// session-state mutation: graph-decl / assign / let statements bump
  /// the epoch. A plan is cached only while every document its FLWR
  /// statements name is registered, and served only while they still
  /// are: a document's contents never change what a plan means, only
  /// whether it exists (semantic analysis reports a missing one).
  /// Capacity is in bytes; 0 disables the cache (and drops its entries).
  /// The initial capacity comes from $GQL_PLAN_CACHE (in MB, "off" or "0"
  /// disables; unset keeps the 8 MB default).
  void set_plan_cache_capacity(size_t bytes);
  bool plan_cache_enabled() const { return plan_cache_ != nullptr; }
  /// The cache itself (null when disabled) — entry/byte counts for
  /// `:stats` lines and tests.
  const PlanCache* plan_cache() const { return plan_cache_.get(); }

  /// Chrome-trace (Perfetto) export: when a path is set — explicitly or
  /// via $GQL_TRACE_EXPORT — every Run records a span tree (even without
  /// profiling) and the accumulated session trace is rewritten to the path
  /// after each run. Empty disables. Worker spans carry real OS thread
  /// ids, so parallel stages render as distinct lanes.
  void set_trace_export_path(std::string path) {
    trace_export_path_ = std::move(path);
  }
  const std::string& trace_export_path() const { return trace_export_path_; }

  /// The query plan as text, without executing: per statement, the derived
  /// pattern alternatives, predicate pushdown, data source, index
  /// decision, and pipeline configuration. Does not mutate evaluator
  /// state (motifs declared inside the program are resolved against a
  /// scratch registry).
  Result<std::string> Explain(const lang::Program& program) const;
  Result<std::string> ExplainSource(std::string_view source) const;

  /// EXPLAIN ANALYZE: renders the plan, EXECUTES the program (state
  /// mutations included, exactly as Run), and annotates each statement
  /// with measured actuals — stage times, candidate counts before/after
  /// refinement, estimated cost vs actual search steps, snapshot probes,
  /// parallelism — followed by the run's limit report.
  Result<std::string> ExplainAnalyze(const lang::Program& program);
  Result<std::string> ExplainAnalyzeSource(std::string_view source);

  /// Statically analyzes a program against this session's state
  /// (registered motifs, bound variables, registered documents) without
  /// executing or mutating anything. Used by Run (pruning + diagnostics),
  /// Explain (classification notes), and the `:check` shell command.
  sema::Analysis Analyze(const lang::Program& program) const;

  /// Value of a graph variable from earlier statements; null if unbound.
  const Graph* Variable(const std::string& name) const;

  /// Member graphs at or above this node count are matched through the
  /// match::LabelIndex shared on their snapshot (built by the first
  /// evaluator that needs it); smaller members are scanned. 0 disables
  /// indexing.
  void set_index_threshold(size_t nodes) { index_threshold_ = nodes; }

  /// Number of label indexes this evaluator built, as opposed to found
  /// already built on their snapshots (observability/testing).
  size_t indexes_built() const { return indexes_built_; }

 private:
  Status RunStatement(const lang::Statement& stmt, QueryResult* result,
                      const sema::StatementInfo* info,
                      const std::vector<algebra::GraphPattern>* precompiled);
  Status RunFlwr(const lang::FlwrExpr& flwr, QueryResult* result,
                 bool prune_unsat,
                 const std::vector<algebra::GraphPattern>* precompiled);
  /// The body shared by Run and RunSource. `plan` carries the front-end
  /// artifacts when the caller came through the plan cache (null for plain
  /// Run — semantic analysis then runs inline under a "sema" span);
  /// `cache_hit` distinguishes a reused plan from a freshly compiled one
  /// (cold runs replay their measured parse/sema durations as completed
  /// trace spans; hits record neither).
  Result<QueryResult> RunInternal(const lang::Program& program,
                                  const CachedPlan* plan, bool cache_hit,
                                  int64_t parse_us, int64_t sema_us);
  /// The cacheability gate + pattern precompilation shared by RunSource
  /// and RunPrepared: true (and plan->alternatives filled) only for pure
  /// programs — every statement a non-`let` FLWR whose pattern resolves
  /// and compiles, over documents that are all registered. False leaves
  /// plan->alternatives empty.
  bool CompileAlternatives(CachedPlan* plan);
  /// True when every document the program's FLWR statements name is
  /// registered — the one fact about the registry a cached plan depends
  /// on (its semantic analysis).
  bool DocsRegistered(const lang::Program& program) const;
  /// Shared renderer behind Explain / ExplainAnalyze: the static plan,
  /// plus per-statement actual lines when `actual` is non-null.
  Result<std::string> RenderExplain(const lang::Program& program,
                                    const QueryResult* actual) const;

  /// Tracer destination for the current Run; null when the run records no
  /// spans (no profiling, no trace export, recorder not retaining traces).
  obs::Tracer* ActiveTracer() {
    return tracer_.enabled() ? &tracer_ : nullptr;
  }

  /// Selection over a collection with per-member auto-indexing; semantics
  /// identical to match::SelectCollectionAny.
  Result<std::vector<algebra::MatchedGraph>> SelectWithAutoIndex(
      const std::vector<algebra::GraphPattern>& alternatives,
      const GraphCollection& collection,
      const match::PipelineOptions& options,
      match::PipelineStats* stats = nullptr);

  const DocumentRegistry* docs_;
  motif::MotifRegistry motifs_;
  std::unordered_map<std::string, Graph> variables_;
  match::PipelineOptions match_options_;
  GovernorLimits limits_;
  ResourceGovernor governor_;
  motif::BuildOptions build_options_;
  size_t index_threshold_ = 512;
  bool profiling_ = false;
  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_{false};
  obs::FlightRecorder recorder_;
  obs::FlightRecorder* shared_recorder_ = nullptr;
  std::string session_label_;
  /// Chrome-trace destination; seeded from $GQL_TRACE_EXPORT (see the
  /// constructor), overridable per session via set_trace_export_path.
  std::string trace_export_path_;
  /// Chrome-trace events accumulated across this session's runs (the
  /// export file is rewritten whole after each traced run).
  std::string trace_events_;
  size_t indexes_built_ = 0;
  /// Plan cache (null = disabled) and its invalidation epoch. The epoch
  /// counts session-state mutations; a cached plan is only served while
  /// the epoch it was compiled at is still current.
  std::unique_ptr<PlanCache> plan_cache_;
  uint64_t plan_epoch_ = 0;
};

}  // namespace graphql::exec

#endif  // GRAPHQL_EXEC_EVALUATOR_H_
