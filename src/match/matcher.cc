#include "match/matcher.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <span>

namespace graphql::match {

namespace {

/// Which roots of a capped parallel search can still reach the root-order
/// merge: once the finished roots before r hold `cap` matches between
/// them, the merge stops before r. A Fenwick tree over root indices finds
/// the first root where the finished matches reach the cap in O(log n)
/// per finished root; workers read the resulting cutoff lock-free.
class RootCutoff {
 public:
  RootCutoff(size_t roots, size_t cap)
      : cap_(cap),
        n_(cap == SIZE_MAX ? 0 : roots),
        tree_(n_ == 0 ? 0 : n_ + 1, 0) {}

  /// True when root r cannot contribute to the merged list.
  bool Skip(size_t r) const {
    return r >= cutoff_.load(std::memory_order_relaxed);
  }

  /// Records that root r finished holding `matches` matches.
  void Finish(size_t r, size_t matches) {
    if (matches == 0 || n_ == 0) return;
    MutexLock lock(&mu_);
    for (size_t i = r + 1; i <= n_; i += i & (~i + 1)) tree_[i] += matches;
    // Binary lifting: the longest root prefix holding fewer than cap_.
    size_t prefix = 0;
    size_t need = cap_;
    size_t step = 1;
    while (step * 2 <= n_) step *= 2;
    for (; step != 0; step /= 2) {
      if (prefix + step <= n_ && tree_[prefix + step] < need) {
        prefix += step;
        need -= tree_[prefix];
      }
    }
    // Roots 0..prefix hold cap_ matches; every later root is cut off.
    if (prefix < n_ && prefix + 1 < cutoff_.load(std::memory_order_relaxed)) {
      cutoff_.store(prefix + 1, std::memory_order_relaxed);
    }
  }

 private:
  const size_t cap_;
  const size_t n_;  ///< Roots tracked; 0 when uncapped.
  Mutex mu_;
  std::vector<size_t> tree_ GQL_GUARDED_BY(mu_);
  std::atomic<size_t> cutoff_{SIZE_MAX};
};

/// Shared DFS engine behind both SearchMatches entry points. Edge probes
/// read the snapshot's CSR runs and interned tags; `data` supplies the
/// attribute values that pushed edge and global predicates evaluate.
class SearchEngine {
 public:
  SearchEngine(const algebra::GraphPattern& pattern, const Graph& data,
               const GraphSnapshot& snap,
               const std::vector<std::vector<NodeId>>& candidates,
               const std::vector<NodeId>& order, const MatchOptions& options,
               SearchStats* stats, obs::MetricsRegistry* metrics)
      : pattern_(pattern),
        p_(pattern.graph()),
        data_(data),
        snap_(snap),
        candidates_(candidates),
        order_(order),
        options_(options),
        stats_(stats),
        metrics_(metrics) {
    assign_.assign(p_.NumNodes(), kInvalidNode);
    edge_assign_.assign(p_.NumEdges(), kInvalidEdge);
    used_.assign(snap.num_nodes(), 0);
    position_.assign(p_.NumNodes(), -1);
    for (size_t i = 0; i < order_.size(); ++i) position_[order_[i]] = static_cast<int>(i);

    // Per order position, the pattern edges whose other endpoint is mapped
    // earlier; checked when this position is assigned.
    back_edges_.resize(order_.size());
    for (size_t e = 0; e < p_.NumEdges(); ++e) {
      const Graph::Edge& pe = p_.edge(static_cast<EdgeId>(e));
      int ps = position_[pe.src];
      int pd = position_[pe.dst];
      int later = std::max(ps, pd);
      back_edges_[later].push_back(static_cast<EdgeId>(e));
    }
    // An edge is trivial when it carries no constraint beyond existence.
    trivial_edge_.resize(p_.NumEdges());
    for (size_t e = 0; e < p_.NumEdges(); ++e) {
      const Graph::Edge& pe = p_.edge(static_cast<EdgeId>(e));
      trivial_edge_[e] =
          pe.attrs.empty() && !pattern.EdgeHasPredicates(static_cast<EdgeId>(e));
    }
  }

  Status Run(std::vector<algebra::MatchedGraph>* out) {
    if (order_.size() != p_.NumNodes()) {
      return Status::InvalidArgument("search order must cover every pattern node");
    }
    if (p_.NumNodes() == 0) return Status::OK();
    out_ = out;
    Dfs(0);
    Flush();
    return status_;
  }

  /// Parallel-mode plumbing: charge through a worker's governor shard and
  /// evaluate edge predicates through its private pattern scratch, so the
  /// engine never touches thread-unsafe shared state.
  void set_shard(GovernorShard* shard) { shard_ = shard; }
  void set_scratch(algebra::PatternScratch* scratch) { scratch_ = scratch; }

  /// Explores one pinned root: order[0] is mapped to `root` only, matches
  /// append to `out`. Match/status state resets per call; counters keep
  /// accumulating across calls (one Flush per engine when the worker's
  /// batch ends).
  Status RunRoot(NodeId root, std::vector<algebra::MatchedGraph>* out) {
    out_ = out;
    matches_ = 0;
    status_ = Status::OK();
    pinned_root_ = root;
    Dfs(0);
    pinned_root_ = kInvalidNode;
    return status_;
  }

  /// Counters accumulate in `local_` during the DFS (register increments,
  /// no sharing); one flush at the end feeds the caller's stats and the
  /// metrics registry. Run() flushes itself; RunRoot callers flush once
  /// per engine after their last root.
  void Flush() {
    if (stats_ != nullptr) {
      stats_->steps += local_.steps;
      stats_->edge_checks += local_.edge_checks;
      stats_->backtracks += local_.backtracks;
      stats_->budget_exhausted |= local_.budget_exhausted;
      stats_->truncated |= local_.truncated;
      stats_->governor_tripped |= local_.governor_tripped;
    }
    if (metrics_ != nullptr) {
      metrics_->GetCounter("match.search.steps")->Increment(local_.steps);
      metrics_->GetCounter("match.search.edge_checks")
          ->Increment(local_.edge_checks);
      metrics_->GetCounter("match.search.backtracks")
          ->Increment(local_.backtracks);
      metrics_->GetCounter("match.search.matches")->Increment(emitted_);
      if (local_.budget_exhausted) {
        metrics_->GetCounter("match.search.budget_exhausted")->Increment();
      }
      if (local_.truncated) {
        metrics_->GetCounter("match.search.truncated")->Increment();
      }
      if (local_csr_probes_ != 0) {
        metrics_->GetCounter("match.search.csr_edge_probes")
            ->Increment(local_csr_probes_);
        local_csr_probes_ = 0;
      }
    }
  }

 private:
  /// Charges the next `n` candidate tries with exactly the outcome of n
  /// single tries: the local max_steps budget, then the governor (or the
  /// worker's shard). Returns false when one of them stops the search;
  /// `steps` then ends on the try that stopped it, as a one-by-one loop
  /// would leave it. Shard trips land at batch granularity.
  bool ChargeTries(uint64_t n) {
    if (n == 0) return true;
    const uint64_t before = local_.steps;
    // Tries that pass the local budget; the try that reaches max_steps is
    // counted but never charged to the governor.
    uint64_t ok = n;
    const bool local_trip =
        options_.max_steps != 0 && before + n >= options_.max_steps;
    if (local_trip) ok = options_.max_steps - before - 1;
    if (shard_ != nullptr) {
      if (ok != 0 && !shard_->Charge(ok)) {
        local_.steps = before + ok;
        local_.governor_tripped = true;
        return false;
      }
    } else if (options_.governor != nullptr && ok != 0) {
      uint64_t accepted =
          options_.governor->ChargeEach(ok, GovernPoint::kSearch);
      if (accepted < ok) {
        local_.steps = before + accepted + 1;
        local_.governor_tripped = true;
        return false;
      }
    }
    if (local_trip) {
      local_.steps = options_.max_steps;
      local_.budget_exhausted = true;
      return false;
    }
    local_.steps = before + n;
    return true;
  }

  /// Finds the first data edge from `from` to `to` compatible with pattern
  /// edge pe (kInvalidEdge if none). The (from, to) CSR run is contiguous
  /// and ascending in edge id, and the pattern edge's interned tag
  /// prefilters it without touching strings.
  EdgeId FindCompatibleEdge(EdgeId pe, NodeId from, NodeId to) {
    SymbolId want_tag = pattern_.edge_tag_sym(pe);
    for (const GraphSnapshot::AdjEntry& a : snap_.EdgesBetween(from, to)) {
      ++local_csr_probes_;
      if (want_tag != kNoSymbol && a.tag_sym != want_tag) continue;
      bool compatible =
          scratch_ != nullptr
              ? pattern_.EdgeCompatible(pe, snap_, data_, a.edge, scratch_)
              : pattern_.EdgeCompatible(pe, snap_, data_, a.edge);
      if (compatible) return a.edge;
    }
    return kInvalidEdge;
  }

  /// Check(u_i, v) of Algorithm 4.1: every pattern edge into the mapped
  /// prefix must have a compatible data edge.
  bool Check(size_t pos, NodeId u, NodeId v) {
    for (EdgeId pe : back_edges_[pos]) {
      const Graph::Edge& e = p_.edge(pe);
      NodeId other = e.src == u ? e.dst : e.src;
      NodeId mapped = assign_[other];
      // Direction: the data edge must run the same way as the pattern edge.
      NodeId from = e.src == u ? v : mapped;
      NodeId to = e.dst == u ? v : mapped;
      if (e.src == u && e.dst == u) {  // Self-loop.
        from = v;
        to = v;
      }
      ++local_.edge_checks;
      if (!snap_.HasEdgeBetween(from, to)) return false;
      if (trivial_edge_[pe]) {
        edge_assign_[pe] = kInvalidEdge;  // Resolved lazily on emit.
        continue;
      }
      EdgeId de = FindCompatibleEdge(pe, from, to);
      if (de == kInvalidEdge) return false;
      edge_assign_[pe] = de;
    }
    return true;
  }

  bool Emit() {
    algebra::MatchedGraph m;
    m.pattern = &pattern_;
    m.data = &data_;
    m.node_mapping = assign_;
    m.edge_mapping = edge_assign_;
    for (size_t e = 0; e < p_.NumEdges(); ++e) {
      if (m.edge_mapping[e] == kInvalidEdge) {
        const Graph::Edge& pe = p_.edge(static_cast<EdgeId>(e));
        // The lowest edge id in the (u, v) run, as Graph::FindEdge yields.
        m.edge_mapping[e] =
            snap_.FindFirstEdge(assign_[pe.src], assign_[pe.dst]);
      }
    }
    ++matches_;
    ++emitted_;
    // Account the emitted mapping vectors against the memory budget; the
    // reservation lives until the governor is re-armed (matches belong to
    // the query's transient result set).
    size_t match_bytes = m.node_mapping.size() * sizeof(NodeId) +
                         m.edge_mapping.size() * sizeof(EdgeId);
    if (shard_ != nullptr) {
      shard_->Reserve(match_bytes);
    } else if (options_.governor != nullptr) {
      options_.governor->Reserve(match_bytes, GovernPoint::kSearch);
    }
    out_->push_back(std::move(m));
    if (!options_.exhaustive) return false;
    if (matches_ >= options_.max_matches) {
      local_.truncated = true;
      return false;
    }
    return true;
  }

  /// Maps u to v, searches the remaining positions, and undoes the
  /// assignment. Returns false to abort the whole search.
  bool Extend(size_t pos, NodeId u, NodeId v) {
    assign_[u] = v;
    used_[v] = 1;
    bool keep_going = Dfs(pos + 1);
    used_[v] = 0;
    assign_[u] = kInvalidNode;
    ++local_.backtracks;
    return keep_going;
  }

  /// How many of candidates [first, last) are already mapped: the tries a
  /// scan of that range would skip as used. Scans the at most k mapped
  /// nodes instead of keeping a rank table.
  uint64_t MappedIn(const NodeId* first, const NodeId* last,
                    size_t pos) const {
    if (first == last) return 0;
    uint64_t mapped = 0;
    for (size_t i = 0; i < pos; ++i) {
      NodeId x = assign_[order_[i]];
      if (x >= *first && x <= last[-1] && std::binary_search(first, last, x)) {
        ++mapped;
      }
    }
    return mapped;
  }

  /// Each back edge of order position `pos` to another, already-mapped
  /// pattern node names a CSR run that u's image must appear in. Sets
  /// `run` to the shortest one; returns false when there is none.
  bool ShortestBackRun(size_t pos, NodeId u,
                       std::span<const GraphSnapshot::AdjEntry>* run) const {
    bool found = false;
    for (EdgeId pe : back_edges_[pos]) {
      const Graph::Edge& e = p_.edge(pe);
      if (e.src == e.dst) continue;  // A self-loop does not reach the prefix.
      NodeId mapped = assign_[e.src == u ? e.dst : e.src];
      // A pattern edge u -> other needs data edge v -> mapped.
      std::span<const GraphSnapshot::AdjEntry> r =
          snap_.directed() && e.src == u ? snap_.in(mapped) : snap_.out(mapped);
      if (!found || r.size() < run->size()) *run = r;
      found = true;
    }
    return found;
  }

  /// Search(u_pos) of Algorithm 4.1. Returns false to abort the whole
  /// search (budget/limit/first match).
  ///
  /// Where a back edge leads to an already-mapped pattern node m, only
  /// data neighbours of m's image can pass Check, so the level walks the
  /// shortest such CSR run and finds each neighbour in the ascending
  /// Phi(u) with a lower_bound from a forward-moving cursor. Each
  /// unmapped candidate skipped between two hits would have been tried
  /// and failed Check, so it is charged as a try: steps, backtracks,
  /// matches and every budget trip equal the plain scan of Phi(u), which
  /// the root and positions unlinked to the prefix still run.
  bool Dfs(size_t pos) {
    if (pos == order_.size()) {
      if (pattern_.has_global_pred()) {
        Result<bool> ok =
            pattern_.EvalGlobalPred(data_, assign_, edge_assign_);
        if (!ok.ok()) {
          status_ = ok.status();
          return false;
        }
        if (!ok.value()) return true;
      }
      return Emit();
    }
    NodeId u = order_[pos];
    // A pinned root replaces Phi(order[0]) with one candidate (parallel
    // fan-out); deeper levels always draw from the full candidate lists.
    const NodeId* begin = candidates_[u].data();
    const NodeId* end = begin + candidates_[u].size();
    if (pos == 0 && pinned_root_ != kInvalidNode) {
      begin = &pinned_root_;
      end = begin + 1;
    }
    std::span<const GraphSnapshot::AdjEntry> run;
    if (!ShortestBackRun(pos, u, &run)) {
      for (const NodeId* it = begin; it != end; ++it) {
        NodeId v = *it;
        if (used_[v]) continue;
        if (!ChargeTries(1)) return false;
        if (Check(pos, u, v) && !Extend(pos, u, v)) return false;
      }
      return true;
    }
    const NodeId* uncharged = begin;  // First candidate not yet accounted.
    const NodeId* cursor = begin;     // lower_bound start for the next hit.
    NodeId prev = kInvalidNode;
    for (const GraphSnapshot::AdjEntry& a : run) {
      ++local_csr_probes_;
      if (a.node == prev) continue;  // Parallel-edge repeat.
      prev = a.node;
      cursor = std::lower_bound(cursor, end, a.node);
      if (cursor == end) break;
      if (*cursor != a.node) continue;
      const NodeId v = a.node;
      const bool fresh = used_[v] == 0;
      if (!ChargeTries(static_cast<uint64_t>(cursor - uncharged) -
                       MappedIn(uncharged, cursor, pos) + (fresh ? 1 : 0))) {
        return false;
      }
      uncharged = ++cursor;
      if (fresh && Check(pos, u, v) && !Extend(pos, u, v)) return false;
    }
    return ChargeTries(static_cast<uint64_t>(end - uncharged) -
                       MappedIn(uncharged, end, pos));
  }

  const algebra::GraphPattern& pattern_;
  const Graph& p_;
  const Graph& data_;
  const GraphSnapshot& snap_;
  const std::vector<std::vector<NodeId>>& candidates_;
  const std::vector<NodeId>& order_;
  const MatchOptions& options_;
  std::vector<algebra::MatchedGraph>* out_ = nullptr;
  SearchStats* stats_;
  obs::MetricsRegistry* metrics_;
  GovernorShard* shard_ = nullptr;
  algebra::PatternScratch* scratch_ = nullptr;
  NodeId pinned_root_ = kInvalidNode;

  std::vector<NodeId> assign_;
  std::vector<EdgeId> edge_assign_;
  std::vector<char> used_;
  std::vector<int> position_;
  std::vector<std::vector<EdgeId>> back_edges_;
  std::vector<char> trivial_edge_;
  SearchStats local_;
  uint64_t local_csr_probes_ = 0;  ///< CSR edge-run entries examined.
  size_t matches_ = 0;   ///< Matches this run (reset per pinned root).
  size_t emitted_ = 0;   ///< Matches across the engine's lifetime.
  Status status_;
};

}  // namespace

Result<std::vector<algebra::MatchedGraph>> SearchMatches(
    const algebra::GraphPattern& pattern, const Graph& data,
    const std::vector<std::vector<NodeId>>& candidates,
    const std::vector<NodeId>& order, const MatchOptions& options,
    SearchStats* stats, obs::MetricsRegistry* metrics) {
  std::shared_ptr<const GraphSnapshot> snap = data.snapshot();
  return SearchMatchesParallel(pattern, data, *snap, candidates, order,
                               options, /*num_threads=*/0, nullptr, stats,
                               metrics);
}

Result<std::vector<algebra::MatchedGraph>> SearchMatchesParallel(
    const algebra::GraphPattern& pattern, const Graph& data,
    const GraphSnapshot& snap,
    const std::vector<std::vector<NodeId>>& candidates,
    const std::vector<NodeId>& order, const MatchOptions& options,
    int num_threads, ThreadPool* pool, SearchStats* stats,
    obs::MetricsRegistry* metrics, ThreadPool::RunStats* run_stats) {
  for (const std::vector<NodeId>& phi : candidates) {
    if (std::adjacent_find(phi.begin(), phi.end(),
                           std::greater_equal<NodeId>()) != phi.end()) {
      return Status::InvalidArgument(
          "candidate lists must be strictly ascending by node id");
    }
  }
  int workers = ResolveWorkers(num_threads, pool);
  // The local step budget counts candidate tries in global DFS order — a
  // per-root split cannot reproduce where it stops, so that knob stays on
  // the serial path.
  if (workers < 2 || options.max_steps != 0 ||
      pattern.graph().NumNodes() == 0 ||
      order.size() != pattern.graph().NumNodes()) {
    std::vector<algebra::MatchedGraph> out;
    SearchEngine engine(pattern, data, snap, candidates, order, options,
                        stats, metrics);
    GQL_RETURN_IF_ERROR(engine.Run(&out));
    return out;
  }
  const std::vector<NodeId>& roots = candidates[order[0]];
  if (roots.empty()) return std::vector<algebra::MatchedGraph>{};
  ThreadPool& tp = pool != nullptr ? *pool : ThreadPool::Shared();

  const size_t n = roots.size();
  std::vector<std::vector<algebra::MatchedGraph>> per_root(n);
  std::vector<Status> per_status(n, Status::OK());

  struct WorkerState {
    std::unique_ptr<SearchEngine> engine;
    std::unique_ptr<obs::MetricsRegistry> metric_shard;
    algebra::PatternScratch scratch;
    GovernorShard shard;
    SearchStats stats;
  };
  std::vector<WorkerState> ws(static_cast<size_t>(workers));

  // The merge below keeps at most `cap` matches, so once finished roots
  // before r hold that many, root r cannot contribute: skip it.
  RootCutoff cutoff(n, options.exhaustive
                          ? std::max<size_t>(options.max_matches, 1)
                          : 1);

  auto run_root = [&](size_t item, int w) {
    // The pool pops each worker's block from its high end, so dealing the
    // roots in reverse lets every worker walk its block in ascending root
    // order: the low roots the cap keeps finish first.
    const size_t r = n - 1 - item;
    if (cutoff.Skip(r)) return;
    WorkerState& s = ws[static_cast<size_t>(w)];
    if (s.engine == nullptr) {
      s.shard = GovernorShard(options.governor, GovernPoint::kSearch);
      if (metrics != nullptr) {
        s.metric_shard = std::make_unique<obs::MetricsRegistry>();
      }
      s.engine = std::make_unique<SearchEngine>(
          pattern, data, snap, candidates, order, options, &s.stats,
          s.metric_shard.get());
      s.engine->set_shard(&s.shard);
      s.engine->set_scratch(&s.scratch);
    }
    per_status[r] = s.engine->RunRoot(roots[r], &per_root[r]);
    cutoff.Finish(r, per_root[r].size());
  };
  ThreadPool::RunStats run = tp.ParallelFor(n, workers, run_root);

  for (WorkerState& s : ws) {
    if (s.engine == nullptr) continue;
    s.shard.Flush();
    s.engine->Flush();
    if (stats != nullptr) {
      stats->steps += s.stats.steps;
      stats->edge_checks += s.stats.edge_checks;
      stats->backtracks += s.stats.backtracks;
      stats->budget_exhausted |= s.stats.budget_exhausted;
      stats->governor_tripped |= s.stats.governor_tripped;
    }
    if (metrics != nullptr && s.metric_shard != nullptr) {
      metrics->Merge(s.metric_shard->Snapshot());
    }
  }
  if (run_stats != nullptr) *run_stats = std::move(run);

  // Deterministic merge in root order. Per-root lists hold matches in that
  // root's DFS order, and the serial search visits roots in this same
  // order, so concatenation + the stop rules below reproduce its output
  // exactly: the max_matches cap cuts at the same match, first-match mode
  // takes the first non-empty root, and an error surfaces only if the
  // serial search would have reached it before stopping.
  std::vector<algebra::MatchedGraph> out;
  bool truncated = false;
  Status status = Status::OK();
  for (size_t r = 0; r < n; ++r) {
    bool stop = false;
    for (algebra::MatchedGraph& m : per_root[r]) {
      out.push_back(std::move(m));
      if (!options.exhaustive) {
        stop = true;
        break;
      }
      if (out.size() >= options.max_matches) {
        truncated = true;
        stop = true;
        break;
      }
    }
    if (stop) break;
    if (!per_status[r].ok()) {
      status = per_status[r];
      break;
    }
  }
  if (stats != nullptr) stats->truncated |= truncated;
  if (metrics != nullptr && truncated) {
    metrics->GetCounter("match.search.truncated")->Increment();
  }
  if (!status.ok()) return status;
  return out;
}

std::vector<NodeId> DeclarationOrder(const algebra::GraphPattern& pattern) {
  std::vector<NodeId> order(pattern.graph().NumNodes());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<NodeId>(i);
  return order;
}

}  // namespace graphql::match
