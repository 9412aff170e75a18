#include "match/pipeline.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "match/vectorized.h"

namespace graphql::match {

namespace {

/// Attempts to serve a wildcard-label pattern node's base candidate list
/// from an attribute B+-tree (Section 4.2's B-tree retrieval): an equality
/// constraint from the pattern tuple, or range bounds assembled from
/// pushed-down `attr op literal` predicates.
std::optional<std::vector<NodeId>> AttrIndexBaseList(
    const algebra::GraphPattern& pattern, NodeId u, const LabelIndex& index) {
  const Graph& p = pattern.graph();
  // Equality constraints from non-label tuple attributes.
  for (const auto& [k, v] : p.node(u).attrs.attrs()) {
    if (k == "label") continue;
    if (index.HasAttributeIndex(k)) return index.AttrExact(k, v);
  }

  // Resolve a name path to "an attribute of pattern node u": a bare
  // attribute name, `<node>.attr`, or `<pattern>.<node>.attr`.
  auto attr_of_u = [&](const lang::Expr& e) -> const std::string* {
    if (e.kind != lang::Expr::Kind::kName) return nullptr;
    const auto& path = e.path;
    if (path.size() == 1) return &path[0];
    size_t start = 0;
    if (path.size() == 3 && !pattern.name().empty() &&
        path[0] == pattern.name()) {
      start = 1;
    }
    if (path.size() - start != 2) return nullptr;
    auto it = pattern.node_names().find(path[start]);
    if (it == pattern.node_names().end() || it->second != u) return nullptr;
    return &path.back();
  };

  // Accumulate bounds per attribute; use the first indexed attribute that
  // gets at least one bound.
  std::string attr;
  std::optional<Value> lo;
  std::optional<Value> hi;
  bool lo_inclusive = true;
  bool hi_inclusive = true;
  for (const lang::ExprPtr& pred : pattern.NodePreds(u)) {
    if (pred->kind != lang::Expr::Kind::kBinary) continue;
    const lang::Expr* name_side = nullptr;
    const lang::Expr* lit_side = nullptr;
    bool flipped = false;
    if (pred->lhs->kind == lang::Expr::Kind::kName &&
        pred->rhs->kind == lang::Expr::Kind::kLiteral) {
      name_side = pred->lhs.get();
      lit_side = pred->rhs.get();
    } else if (pred->rhs->kind == lang::Expr::Kind::kName &&
               pred->lhs->kind == lang::Expr::Kind::kLiteral) {
      name_side = pred->rhs.get();
      lit_side = pred->lhs.get();
      flipped = true;
    } else {
      continue;
    }
    const std::string* a = attr_of_u(*name_side);
    if (a == nullptr || !index.HasAttributeIndex(*a)) continue;
    if (!attr.empty() && attr != *a) continue;  // One attribute at a time.

    lang::BinaryOp op = pred->op;
    if (flipped) {
      switch (op) {
        case lang::BinaryOp::kLt:
          op = lang::BinaryOp::kGt;
          break;
        case lang::BinaryOp::kLe:
          op = lang::BinaryOp::kGe;
          break;
        case lang::BinaryOp::kGt:
          op = lang::BinaryOp::kLt;
          break;
        case lang::BinaryOp::kGe:
          op = lang::BinaryOp::kLe;
          break;
        default:
          break;
      }
    }
    const Value& lit = lit_side->literal;
    switch (op) {
      case lang::BinaryOp::kEq:
        attr = *a;
        if (!lo || *lo < lit) {
          lo = lit;
          lo_inclusive = true;
        }
        if (!hi || lit < *hi) {
          hi = lit;
          hi_inclusive = true;
        }
        break;
      case lang::BinaryOp::kLt:
      case lang::BinaryOp::kLe:
        attr = *a;
        if (!hi || lit < *hi) {
          hi = lit;
          hi_inclusive = op == lang::BinaryOp::kLe;
        }
        break;
      case lang::BinaryOp::kGt:
      case lang::BinaryOp::kGe:
        attr = *a;
        if (!lo || *lo < lit) {
          lo = lit;
          lo_inclusive = op == lang::BinaryOp::kGe;
        }
        break;
      default:
        break;
    }
  }
  if (attr.empty()) return std::nullopt;
  return index.AttrRange(attr, lo ? &*lo : nullptr, lo_inclusive,
                         hi ? &*hi : nullptr, hi_inclusive);
}

/// Records one completed "worker" child span per OS thread that served the
/// enclosing stage's ParallelFor jobs. Must run while the stage span is
/// still open so the lanes nest under it; the Chrome-trace exporter routes
/// each one onto its thread's lane via the "tid" attribute.
void EmitWorkerLanes(obs::Tracer* tracer,
                     const std::vector<ThreadPool::WorkerLane>& lanes) {
  if (tracer == nullptr) return;
  for (const ThreadPool::WorkerLane& lane : lanes) {
    if (lane.os_tid == 0 || lane.end_us < lane.start_us) continue;
    obs::TraceNode* node = tracer->AddCompleted("worker", lane.start_us,
                                                lane.end_us - lane.start_us);
    if (node == nullptr) continue;
    node->SetAttr("tid", lane.os_tid);
    node->SetAttr("tasks", static_cast<int64_t>(lane.tasks));
    if (lane.stolen > 0) {
      node->SetAttr("stolen", static_cast<int64_t>(lane.stolen));
    }
  }
}

/// The B(u, v) tests one level of Algorithm 4.2 makes over `candidates`:
/// Sum |Phi(u)| over the pattern nodes with a neighbour.
uint64_t RefineTests(const algebra::GraphPattern& pattern,
                     const std::vector<std::vector<NodeId>>& candidates) {
  const Graph& p = pattern.graph();
  uint64_t tests = 0;
  for (NodeId u = 0; u < static_cast<NodeId>(p.NumNodes()); ++u) {
    if (p.Degree(u) > 0 || (p.directed() && !p.in_neighbors(u).empty())) {
      tests += candidates[u].size();
    }
  }
  return tests;
}

/// One MatchPattern or RetrieveCandidates call: its stats, and what the
/// registry write needs beyond them.
struct Call {
  PipelineStats stats;
  bool refined = false;    ///< Refinement ran.
  bool searched = false;   ///< The search engine ran.
  const GraphSnapshot* built = nullptr;  ///< A snapshot this call compiled.
  const char* trip = nullptr;  ///< Point of a governor trip it caused.
  int64_t us = -1;             ///< MatchPattern's wall time.
};

/// The one place selection writes the metrics registry: one call's counts
/// under their match.*, snapshot.* and governor.* names, each stage's only
/// when that stage ran.
void RecordCall(const Call& call, const PipelineOptions& options) {
  obs::MetricsRegistry* metrics = options.metrics;
  if (metrics == nullptr) return;
  auto add = [metrics](std::string_view name, uint64_t n) {
    metrics->GetCounter(name)->Increment(n);
  };
  // A counter only some calls move is created by the first of them.
  auto add_nonzero = [&add](std::string_view name, uint64_t n) {
    if (n != 0) add(name, n);
  };
  if (call.built != nullptr) {
    add("snapshot.builds", 1);
    add("snapshot.bytes", call.built->bytes());
    metrics->GetHistogram("snapshot.build_us")
        ->Record(static_cast<uint64_t>(call.built->build_micros()));
  }
  const PipelineStats& s = call.stats;
  const RetrieveStats& r = s.retrieve;
  add_nonzero("match.bytecode.pred_compiled", r.pred_compiled);
  add_nonzero("match.bytecode.pred_fallback", r.pred_fallback);
  add_nonzero("match.retrieve.scans", r.scans);
  add("match.retrieve.feasible_hits", r.feasible_hits);
  add("match.retrieve.feasible_misses", r.feasible_misses);
  // Indexed retrieval reports what its candidate mode pruned.
  if (r.scans == 0 && options.candidate_mode != CandidateMode::kLabelOnly) {
    add(options.candidate_mode == CandidateMode::kProfile
            ? "match.retrieve.profile_pruned"
            : "match.retrieve.neighborhood_pruned",
        r.pruned);
  }
  if (r.neighborhood.tests != 0) {
    add("match.neighborhood.tests", r.neighborhood.tests);
    add("match.neighborhood.steps", r.neighborhood.steps);
  }
  add_nonzero("match.neighborhood.budget_hits", r.neighborhood.budget_hits);
  // An on-demand attempt that overran refined its call.
  const bool overran = s.attempts != 0 && call.refined;
  add_nonzero("match.refine.on_demand", overran ? 1 : 0);
  add_nonzero("match.search.abandoned_tries", overran ? s.attempt_tries : 0);
  if (call.refined) {
    add("match.refine.bipartite_checks", s.refine.bipartite_checks);
    add("match.refine.removed", s.refine.removed);
    add("match.refine.dirty_skips", s.refine.dirty_skips);
    add("match.refine.levels", static_cast<uint64_t>(s.refine.levels_run));
  }
  if (s.refine_degraded) add("governor.degrade.refine", 1);
  if (call.searched) {
    add("match.search.steps", s.search.steps);
    add("match.search.edge_checks", s.search.edge_checks);
    add("match.search.backtracks", s.search.backtracks);
    add("match.search.matches", s.search.matches);
    add_nonzero("match.search.truncated", s.search.truncated ? 1 : 0);
    add_nonzero("match.search.csr_edge_probes", s.search.csr_edge_probes);
    add_nonzero("match.search.pred_rejects", s.search.pred_rejects);
  }
  if (call.trip != nullptr) {
    add(std::string("governor.trip.") + call.trip, 1);
  }
  if (call.us >= 0) {
    add("match.queries", 1);
    metrics->GetHistogram("match.query.us")
        ->Record(static_cast<uint64_t>(call.us));
  }
}

/// Retrieval of feasible mates (first phase of Algorithm 4.1 + Section 4.2
/// pruning). Each pattern node scans its base list with the per-candidate
/// test of what the base list does not already guarantee (nothing at all
/// for a node left with no tag, requirement or predicate). Without an
/// index the base list is every node and nothing else applies; with one it
/// is the label's posting list, a B+-tree range or every node, and the
/// candidate mode's local pruning follows: a profile signature AND before
/// each profile merge, or a neighborhood sub-isomorphism test. Each node
/// charges the governor |base(u)| before its scan; on a trip the remaining
/// candidate lists stay empty (partial-result semantics). With an index
/// and two or more workers one task per pattern node fans out the scan and
/// the profile checks, counting its charge in a TaskLedger, and the
/// calling thread replays the charges in node order, so the lists equal
/// the serial ones under any budget; anything that touches non-thread-safe
/// structures (B+-tree lookups, the pattern's snapshot, profiles and
/// neighborhoods, the all-nodes list) runs before the scans. Neighborhood
/// tests run on the calling thread at every thread count, each node's
/// right after its charge. Without an index the calling thread scans:
/// those graphs are collection members, cheaper to scan than a pool
/// dispatch, so the scan also allocates nothing it does not use.
std::vector<std::vector<NodeId>> Retrieve(const algebra::GraphPattern& pattern,
                                          const Graph& data,
                                          const GraphSnapshot& snap,
                                          const LabelIndex* index,
                                          const PipelineOptions& options,
                                          Call* call,
                                          ThreadPool::RunStats* run_stats) {
  const Graph& p = pattern.graph();
  const size_t k = p.NumNodes();
  std::vector<std::vector<NodeId>> out(k);
  PipelineStats& stats = call->stats;
  RetrieveStats& counts = stats.retrieve;
  stats.size_attr.assign(k, 0);  // |Phi0(u)|, set by each node's scan.
  stats.size_retrieved.assign(k, 0);
  if (index == nullptr) counts.scans = 1;
  ResourceGovernor* gov = options.governor;
  const int workers =
      index != nullptr ? ResolveWorkers(options.num_threads, options.pool) : 0;
  const bool parallel = workers > 1;

  // One read-only plan shared by every worker. A labelled node's base list
  // is its label's posting list; built from this very snapshot, the index
  // guarantees the label, so the plan does not re-check it.
  SelectionPlan plan(
      pattern, snap,
      /*label_lists=*/index != nullptr && &index->snapshot() == &snap);
  counts.pred_compiled += plan.preds_compiled();
  counts.pred_fallback += plan.preds_fallback();
  // Base lists: every node without an index; with one, a labelled node's
  // posting list, a B+-tree range or every node.
  std::vector<NodeId> all_nodes;
  std::vector<const std::vector<NodeId>*> base;  // Only with an index.
  std::vector<std::vector<NodeId>> owned_base;   // B+-tree ranges.
  bool every_node = index == nullptr;
  if (index != nullptr) {
    base.assign(k, &all_nodes);
    for (size_t u = 0; u < k; ++u) {
      NodeId pu = static_cast<NodeId>(u);
      if (SymbolId label = plan.base_label(pu); label != kNoSymbol) {
        base[u] = &index->NodesWithLabelSym(label);
      } else if (auto from_attr = AttrIndexBaseList(pattern, pu, *index)) {
        // B+-tree lookups return value order; the search needs every
        // candidate list ascending by node id.
        if (owned_base.empty()) owned_base.resize(k);
        owned_base[u] = std::move(*from_attr);
        std::sort(owned_base[u].begin(), owned_base[u].end());
        base[u] = &owned_base[u];
      } else {
        every_node = true;
      }
    }
  }
  if (every_node) {
    all_nodes.resize(data.NumNodes());
    std::iota(all_nodes.begin(), all_nodes.end(), NodeId{0});
  }
  auto base_of = [&](size_t u) -> const std::vector<NodeId>& {
    return index != nullptr ? *base[u] : all_nodes;
  };
  // The pattern side of local pruning walks the pattern graph's snapshot,
  // compiled once per pattern graph, with the walker the index was built
  // with. Its labels are interned into the process-wide symbol table (the
  // id space data profiles use), so a pattern label absent from the data
  // never occurs in any data profile and containment fails for it.
  const bool use_profiles = index != nullptr &&
                            options.candidate_mode == CandidateMode::kProfile &&
                            index->has_profiles();
  const bool use_neighborhoods =
      index != nullptr &&
      options.candidate_mode == CandidateMode::kNeighborhood &&
      index->has_neighborhoods();
  std::shared_ptr<const GraphSnapshot> pattern_snap;
  std::vector<Profile> want_profile(use_profiles ? k : 0);
  std::vector<uint64_t> want_sig(use_profiles ? k : 0);
  std::vector<std::vector<NodeId>> want_members(use_neighborhoods ? k : 0);
  std::vector<NeighborhoodSubgraph> want_nbh(use_neighborhoods ? k : 0);
  if (use_profiles || use_neighborhoods) {
    pattern_snap = p.snapshot();
    NeighborhoodWalker walker(*pattern_snap);
    const int radius = index->options().radius;
    for (size_t u = 0; u < want_profile.size(); ++u) {
      want_profile[u] = BuildProfile(&walker, static_cast<NodeId>(u), radius);
      want_sig[u] = ProfileSignature(want_profile[u]);
    }
    for (size_t u = 0; u < want_nbh.size(); ++u) {
      // The walker's view lasts until its next walk: keep the members.
      want_nbh[u] =
          ExtractNeighborhood(&walker, static_cast<NodeId>(u), radius);
      want_members[u].assign(want_nbh[u].members.begin(),
                             want_nbh[u].members.end());
      want_nbh[u].members = want_members[u];
    }
  }

  struct Worker {
    TaskLedger ledger;  // Parallel: the node's charge, for the replay.
    algebra::PatternScratch scratch;
  };
  auto scan = [&](size_t u, Worker& w) {
    NodeId pu = static_cast<NodeId>(u);
    const std::vector<NodeId>& b = base_of(u);
    // The feasible candidates: the base list itself when the plan checks
    // nothing for u, else the kernel's survivors. A posting list bounds
    // its survivors closely, every node does not.
    const bool all = plan.AcceptsAll(pu);
    std::vector<NodeId> kept;
    if (!all) {
      if (index != nullptr) kept.reserve(b.size());
      ScanBaseList(plan, pu, data, b, &w.scratch, &kept);
    }
    const std::vector<NodeId>& stage = all ? b : kept;
    stats.size_attr[u] = stage.size();
    if (use_profiles) {
      // One AND rejects most candidates; the merge runs on the rest.
      const uint64_t sig = want_sig[u];
      for (NodeId v : stage) {
        if ((sig & ~index->profile_signature(v)) == 0 &&
            ProfileSpanContains(index->profile(v), want_profile[u])) {
          out[u].push_back(v);
        }
      }
    } else if (all) {
      out[u] = b;
    } else {
      out[u] = std::move(kept);
    }
  };
  // Node u's neighborhood tests, on the calling thread, over the feasible
  // list its scan left in out[u].
  auto test_neighborhoods = [&](size_t u) {
    std::erase_if(out[u], [&](NodeId v) {
      return !NeighborhoodSubIsomorphic(want_nbh[u], index->neighborhood(v),
                                        gov, &counts.neighborhood);
    });
  };

  // Parallel, per pattern node: whether the ledger stopped the task.
  std::vector<char> stopped(parallel ? k : 0, 0);
  if (parallel) {
    std::vector<Worker> ws(static_cast<size_t>(workers));
    const TaskLedger budget(gov);
    for (Worker& w : ws) w.ledger = budget;
    ThreadPool& tp =
        options.pool != nullptr ? *options.pool : ThreadPool::Shared();
    ThreadPool::RunStats run =
        tp.ParallelFor(k, workers, [&](size_t u, int w) {
          Worker& s = ws[static_cast<size_t>(w)];
          s.ledger.Restart();
          if (s.ledger.Charge(base_of(u).size())) scan(u, s);
          stopped[u] = s.ledger.stopped();
        });
    if (run_stats != nullptr) *run_stats = std::move(run);
  }
  // The serial loop's governor calls, node by node; in parallel the scans
  // are done and this replays their charges. A task its ledger stopped
  // whose charge the governor accepts saw the governor expire: CheckNow()
  // takes that trip, and the node keeps its empty list.
  size_t scanned = 0;  // Nodes charged in full; later lists stay empty.
  Worker serial;
  for (; scanned < k; ++scanned) {
    if (!GovCharge(gov, base_of(scanned).size(), GovernPoint::kRetrieve)) {
      break;
    }
    if (!parallel) {
      scan(scanned, serial);
    } else if (stopped[scanned]) {
      gov->CheckNow(GovernPoint::kRetrieve);
      ++scanned;
      break;
    }
    if (use_neighborhoods) test_neighborhoods(scanned);
  }

  // Sizes and counters describe the lists returned and the tests run, so
  // they equal serial's at any thread count.
  for (size_t u = 0; u < k; ++u) {
    if (u < scanned) {
      counts.feasible_hits += stats.size_attr[u];
      counts.feasible_misses += base_of(u).size() - stats.size_attr[u];
      counts.pruned += stats.size_attr[u] - out[u].size();
    } else {
      out[u].clear();
      stats.size_attr[u] = 0;
    }
    stats.size_retrieved[u] = out[u].size();
  }
  return out;
}

}  // namespace

const char* CandidateModeName(CandidateMode mode) {
  switch (mode) {
    case CandidateMode::kLabelOnly:
      return "label-only";
    case CandidateMode::kProfile:
      return "profile";
    case CandidateMode::kNeighborhood:
      return "neighborhood";
  }
  return "?";
}

void RetrieveStats::Add(const RetrieveStats& other) {
  scans += other.scans;
  feasible_hits += other.feasible_hits;
  feasible_misses += other.feasible_misses;
  pruned += other.pruned;
  neighborhood.Add(other.neighborhood);
  pred_compiled += other.pred_compiled;
  pred_fallback += other.pred_fallback;
}

void PipelineStats::Add(PipelineStats later) {
  size_attr = std::move(later.size_attr);
  size_retrieved = std::move(later.size_retrieved);
  size_refined = std::move(later.size_refined);
  us_retrieve += later.us_retrieve;
  us_refine += later.us_refine;
  us_order += later.us_order;
  us_search += later.us_search;
  retrieve.Add(later.retrieve);
  search.Add(later.search);
  refine.Add(later.refine);
  num_matches = later.num_matches;
  order = std::move(later.order);
  refine_degraded |= later.refine_degraded;
  members_refined += later.members_refined;
  attempts += later.attempts;
  attempt_tries += later.attempt_tries;
  attempt_budget += later.attempt_budget;
  threads = later.threads;
  tasks_stolen += later.tasks_stolen;
  members += later.members;
  sum_candidates_attr += later.sum_candidates_attr;
  sum_candidates_retrieved += later.sum_candidates_retrieved;
  sum_candidates_refined += later.sum_candidates_refined;
  est_cost += later.est_cost;
}

double PipelineStats::Space(const std::vector<size_t>& sizes) {
  double space = sizes.empty() ? 0.0 : 1.0;
  for (size_t s : sizes) space *= static_cast<double>(s);
  return space;
}

std::vector<std::vector<NodeId>> RetrieveCandidates(
    const algebra::GraphPattern& pattern, const Graph& data,
    const LabelIndex* index, const PipelineOptions& options,
    PipelineStats* stats) {
  std::shared_ptr<const GraphSnapshot> snap = data.snapshot();
  Call call;
  std::vector<std::vector<NodeId>> out = Retrieve(
      pattern, data, *snap, index, options, &call, /*run_stats=*/nullptr);
  RecordCall(call, options);
  if (stats != nullptr) stats->Add(std::move(call.stats));
  return out;
}

Result<std::vector<algebra::MatchedGraph>> MatchPattern(
    const algebra::GraphPattern& pattern, const Graph& data,
    const LabelIndex* index, const PipelineOptions& options,
    PipelineStats* stats) {
  const size_t k = pattern.graph().NumNodes();
  obs::Tracer* tracer = options.tracer;
  ResourceGovernor* gov = options.governor;
  // Trip counters are emitted on the not-tripped -> tripped transition so
  // collection loops over many member graphs count each trip once.
  const bool was_tripped = gov != nullptr && gov->tripped();
  // Intra-query parallelism: 0 or 1 runs every stage on the calling
  // thread; parallel runs produce the serial answer.
  const int workers = ResolveWorkers(options.num_threads, options.pool);
  Call call;
  PipelineStats& s = call.stats;
  if (stats != nullptr) {
    // Refill the caller's candidate-size lists rather than allocate new
    // ones for every member graph of a select; Add hands them back.
    s.size_attr.swap(stats->size_attr);
    s.size_retrieved.swap(stats->size_retrieved);
    s.size_refined.swap(stats->size_refined);
  }

  // Compile (or fetch) the data graph's snapshot on the coordinator before
  // any fan-out, so worker threads only ever read the finished immutable
  // structure.
  bool snap_fresh = false;
  std::shared_ptr<const GraphSnapshot> snap = data.snapshot(&snap_fresh);
  if (snap_fresh) call.built = snap.get();
  // A freshly compiled snapshot is new memory this query caused; account
  // it for the query's duration. Cache hits were paid for by the query
  // that built them.
  ScopedReserve snap_mem(snap_fresh ? gov : nullptr,
                         snap_fresh ? snap->bytes() : 0,
                         GovernPoint::kRetrieve);

  // One span per pipeline stage; PipelineStats stage micros are the span
  // durations, so EXPLAIN/PROFILE and the figure benchmarks report the
  // same numbers from the same clock.
  obs::Span query_span(tracer, "match", obs::Span::Timing::kAlways);
  if (query_span.active()) {
    if (!pattern.name().empty()) query_span.SetAttr("pattern", pattern.name());
    query_span.SetAttr("pattern_nodes", static_cast<int64_t>(k));
    query_span.SetAttr("data_nodes",
                       static_cast<int64_t>(data.NumNodes()));
    query_span.SetAttr("mode", CandidateModeName(options.candidate_mode));
    query_span.SetAttr("indexed", static_cast<int64_t>(index != nullptr));
    if (workers > 0) {
      query_span.SetAttr("threads", static_cast<int64_t>(workers));
    }
  }

  obs::Span retrieve_span(tracer, "retrieve", obs::Span::Timing::kAlways);
  ThreadPool::RunStats retrieve_run;
  std::vector<std::vector<NodeId>> candidates = Retrieve(
      pattern, data, *snap, index, options, &call, &retrieve_run);
  if (retrieve_span.active()) {
    size_t total = 0;
    for (const auto& c : candidates) total += c.size();
    retrieve_span.SetAttr("candidates", static_cast<int64_t>(total));
    if (retrieve_run.workers > 0) {
      retrieve_span.SetAttr("threads",
                            static_cast<int64_t>(retrieve_run.workers));
      retrieve_span.SetAttr("tasks_stolen",
                            static_cast<int64_t>(retrieve_run.stolen));
    }
  }
  EmitWorkerLanes(tracer, retrieve_run.lanes);
  retrieve_span.End();

  // The stages after retrieve. At an explicit level, refinement runs, then
  // the order and the search. On demand, the order and a search attempt
  // capped at the budget run first: an attempt that ends within it is the
  // answer, and one that overruns it (without a governor trip) is
  // discarded for refinement, a new order and an uncapped search.
  const bool on_demand = options.refine_level == kRefineOnDemand;
  const int level =
      options.refine_level < 0 ? static_cast<int>(k) : options.refine_level;
  bool refine = !on_demand;
  uint64_t max_tries = UINT64_MAX;
  if (on_demand && pattern.graph().NumEdges() > 0) {
    max_tries = kAttemptTriesPerCandidate * RefineTests(pattern, candidates);
    s.attempts = 1;
    s.attempt_budget = max_tries;
  }
  MatchOptions match_options = options.match;
  if (match_options.governor == nullptr) match_options.governor = gov;
  Result<std::vector<algebra::MatchedGraph>> matches =
      std::vector<algebra::MatchedGraph>{};
  uint64_t search_stolen = 0;
  // Two passes at most: an attempt that overran, then the refined search.
  for (int pass = 0; pass < 2; ++pass) {
    if (refine) {
      obs::Span refine_span(tracer, "refine", obs::Span::Timing::kAlways);
      if (level > 0 && k > 0 && GovOk(gov)) {
        call.refined = true;
        s.members_refined = 1;
        // Snapshot the candidate sets so a degradable budget trip can fall
        // back to the exact unrefined space; skipped for ungoverned
        // queries.
        std::vector<std::vector<NodeId>> snapshot;
        const bool can_degrade = gov != nullptr && gov->HasLimits();
        if (can_degrade) snapshot = candidates;
        RefineSearchSpace(pattern, *snap, level, &candidates, &s.refine,
                          options.refine_use_marking, gov);
        if (s.refine.aborted && can_degrade && gov->DegradableTrip()) {
          candidates = std::move(snapshot);
          gov->RefundSteps(s.refine.pairs_charged);
          gov->ClearDegradableTrip();
          gov->NoteDegradation(
              "refine: budget exhausted; fell back to unrefined candidate "
              "sets");
          s.refine_degraded = true;
        }
      }
      if (refine_span.active()) {
        refine_span.SetAttr("level", static_cast<int64_t>(level));
        if (on_demand) refine_span.SetAttr("on_demand", "attempt-overran");
        refine_span.SetAttr("bipartite_checks",
                            static_cast<int64_t>(s.refine.bipartite_checks));
        refine_span.SetAttr("removed", static_cast<int64_t>(s.refine.removed));
        refine_span.SetAttr("dirty_skips",
                            static_cast<int64_t>(s.refine.dirty_skips));
        if (s.refine_degraded) {
          refine_span.SetAttr("degraded", "fallback-unrefined");
        }
      }
      refine_span.End();
      s.us_refine += refine_span.DurationMicros();
    }
    s.size_refined.assign(k, 0);
    for (size_t u = 0; u < k; ++u) s.size_refined[u] = candidates[u].size();

    obs::Span order_span(tracer, "order", obs::Span::Timing::kAlways);
    s.order = options.optimize_order
                  ? GreedySearchOrder(pattern, candidates, index, options.order)
                  : DeclarationOrder(pattern);
    if (order_span.active()) {
      order_span.SetAttr("strategy", options.optimize_order ? "greedy-cost"
                                                            : "declaration");
    }
    order_span.End();
    s.us_order += order_span.DurationMicros();

    obs::Span search_span(tracer, "search", obs::Span::Timing::kAlways);
    ThreadPool::RunStats search_run;
    SearchStats search;
    // Retrieve's lists are ascending and the order covers the pattern, so
    // the search engine runs whenever the pattern has a node.
    call.searched = k > 0;
    matches = SearchMatches(pattern, data, candidates, s.order, match_options,
                            &search, options.num_threads, options.pool,
                            &search_run, max_tries);
    s.num_matches = matches.ok() ? matches.value().size() : 0;
    if (search_span.active()) {
      search_span.SetAttr("steps", static_cast<int64_t>(search.steps));
      search_span.SetAttr("backtracks",
                          static_cast<int64_t>(search.backtracks));
      search_span.SetAttr("edge_checks",
                          static_cast<int64_t>(search.edge_checks));
      search_span.SetAttr("matches", static_cast<int64_t>(s.num_matches));
      if (max_tries != UINT64_MAX) {
        search_span.SetAttr("budget", static_cast<int64_t>(max_tries));
        search_span.SetAttr("stopped",
                            static_cast<int64_t>(search.out_of_tries));
      }
      if (search.governor_tripped) {
        search_span.SetAttr("governor_tripped", static_cast<int64_t>(1));
      }
      if (search_run.workers > 0) {
        search_span.SetAttr("threads",
                            static_cast<int64_t>(search_run.workers));
        search_span.SetAttr("tasks_stolen",
                            static_cast<int64_t>(search_run.stolen));
      }
    }
    EmitWorkerLanes(tracer, search_run.lanes);
    search_span.End();
    s.us_search += search_span.DurationMicros();
    s.search.Add(search);
    search_stolen += search_run.stolen;
    if (max_tries != UINT64_MAX) s.attempt_tries = search.steps;
    // The attempt ends the query unless it overran its budget; a governor
    // trip ends the query with its matches, as any search trip does.
    if (!search.out_of_tries || !GovOk(gov)) break;
    if (gov != nullptr) {
      for (const algebra::MatchedGraph& m : *matches) {
        gov->Release(MatchBytes(m));
      }
    }
    s.search.out_of_tries = false;
    refine = true;
    max_tries = UINT64_MAX;
  }

  if (gov != nullptr && gov->tripped() && !was_tripped) {
    call.trip = GovernPointName(gov->trip_point());
  }
  if (query_span.active()) {
    query_span.SetAttr("matches", static_cast<int64_t>(s.num_matches));
    if (gov != nullptr && gov->tripped()) {
      query_span.SetAttr("governor_trip", TripKindName(gov->trip_kind()));
    }
  }
  query_span.End();

  s.us_retrieve = retrieve_span.DurationMicros();
  call.us = query_span.DurationMicros();
  RecordCall(call, options);
  if (stats != nullptr) {
    s.members = 1;
    for (size_t v : s.size_attr) s.sum_candidates_attr += v;
    for (size_t v : s.size_retrieved) s.sum_candidates_retrieved += v;
    for (size_t v : s.size_refined) s.sum_candidates_refined += v;
    s.est_cost = EstimateOrderCost(pattern, s.size_refined, s.order, index,
                                   options.order);
    s.threads = workers;
    s.tasks_stolen = retrieve_run.stolen + search_stolen;
    stats->Add(std::move(s));
  }
  return matches;
}

Result<std::vector<algebra::MatchedGraph>> SelectCollection(
    const algebra::GraphPattern& pattern, const GraphCollection& collection,
    const PipelineOptions& options) {
  return SelectCollectionAny({&pattern, 1}, collection, options);
}

Result<std::vector<algebra::MatchedGraph>> SelectCollectionAny(
    std::span<const algebra::GraphPattern> alternatives,
    const GraphCollection& collection, const PipelineOptions& options) {
  std::vector<algebra::MatchedGraph> out;
  for (const Graph& g : collection) {
    // A tripped governor ends the scan; matches found so far are returned
    // (the caller reads the trip off the governor).
    if (!GovOk(options.governor)) break;
    for (const algebra::GraphPattern& pattern : alternatives) {
      GQL_ASSIGN_OR_RETURN(
          std::vector<algebra::MatchedGraph> matches,
          MatchPattern(pattern, g, /*index=*/nullptr, options));
      if (!matches.empty()) {
        for (algebra::MatchedGraph& m : matches) out.push_back(std::move(m));
        if (!options.match.exhaustive) break;  // One binding per graph.
      }
    }
  }
  return out;
}

}  // namespace graphql::match
