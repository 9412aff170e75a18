#include "match/matcher.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <functional>
#include <memory>
#include <span>

namespace graphql::match {

namespace {

/// Which roots of a parallel search can still reach the root-order merge.
/// The merge stops once the roots before r hold the match cap, or have
/// used the step or memory budget left when the search started; what the
/// finished roots before r hold is a lower bound on that, so once it
/// reaches a cap, root r and every later root are cut off. One Fenwick
/// tree per capped amount finds the first such root in O(log n) per
/// finished root; workers read the resulting cutoff lock-free.
class RootCutoff {
 public:
  /// Matches, tries and bytes; a cap of UINT64_MAX means uncapped.
  using Amounts = std::array<uint64_t, 3>;

  RootCutoff(size_t roots, const Amounts& caps) : n_(roots), caps_(caps) {
    for (size_t i = 0; i < caps.size(); ++i) {
      if (caps[i] != UINT64_MAX) tree_[i].assign(n_ + 1, 0);
    }
  }

  /// True when root r cannot contribute to the merged list.
  bool Skip(size_t r) const {
    return r >= cutoff_.load(std::memory_order_relaxed);
  }

  /// Records what root r finished holding.
  void Finish(size_t r, const Amounts& held) {
    bool capped = false;
    for (size_t i = 0; i < held.size(); ++i) {
      capped |= held[i] != 0 && caps_[i] != UINT64_MAX;
    }
    if (!capped) return;
    MutexLock lock(&mu_);
    size_t cutoff = SIZE_MAX;
    for (size_t i = 0; i < held.size(); ++i) {
      if (held[i] == 0 || caps_[i] == UINT64_MAX) continue;
      std::vector<uint64_t>& tree = tree_[i];
      for (size_t j = r + 1; j <= n_; j += j & (~j + 1)) tree[j] += held[i];
      // Binary lifting: the longest root prefix holding less than the cap.
      size_t prefix = 0;
      uint64_t need = caps_[i];
      for (size_t step = std::bit_floor(n_); step != 0; step /= 2) {
        if (prefix + step <= n_ && tree[prefix + step] < need) {
          prefix += step;
          need -= tree[prefix];
        }
      }
      // Roots 0..prefix hold the cap; every later root is cut off.
      if (prefix < n_) cutoff = std::min(cutoff, prefix + 1);
    }
    if (cutoff < cutoff_.load(std::memory_order_relaxed)) {
      cutoff_.store(cutoff, std::memory_order_relaxed);
    }
  }

 private:
  const size_t n_;
  const Amounts caps_;
  Mutex mu_;
  std::array<std::vector<uint64_t>, 3> tree_ GQL_GUARDED_BY(mu_);
  std::atomic<size_t> cutoff_{SIZE_MAX};
};

/// One root of a parallel search, as its task left it: the matches in
/// DFS order, the task's try count when each was emitted (its stamp), the
/// tries it counted and the match bytes it reserved in all, and its
/// status. `stopped` marks a root the ledger cut short, or one that never
/// ran.
struct RootRun {
  std::vector<algebra::MatchedGraph> matches;
  std::vector<uint64_t> stamps;
  uint64_t tries = 0;
  uint64_t bytes = 0;
  bool stopped = true;
  Status status;
};

/// The DFS engine behind SearchMatches, serial and per root. Edge probes
/// read the snapshot's CSR runs and interned tags; `data` supplies the
/// attribute values that pushed edge and global predicates evaluate. Each
/// residual conjunct runs at the order position that binds the last of
/// its nodes (PlaceConjuncts), so a false verdict prunes the subtree.
class SearchEngine {
 public:
  SearchEngine(const algebra::GraphPattern& pattern, const Graph& data,
               const GraphSnapshot& snap,
               const std::vector<std::vector<NodeId>>& candidates,
               const std::vector<NodeId>& order, const MatchOptions& options,
               uint64_t max_tries)
      : pattern_(pattern),
        p_(pattern.graph()),
        data_(data),
        snap_(snap),
        candidates_(candidates),
        order_(order),
        options_(options),
        tries_left_(max_tries) {
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
      if (trivial_edge_[e]) trivial_edges_.push_back(static_cast<EdgeId>(e));
    }
    if (pattern.has_global_pred()) PlaceConjuncts();
  }

  Status Run(std::vector<algebra::MatchedGraph>* out) {
    if (order_.size() != p_.NumNodes()) {
      return Status::InvalidArgument("search order must cover every pattern node");
    }
    if (p_.NumNodes() == 0) return Status::OK();
    out_ = out;
    Dfs(0);
    return status_;
  }

  /// Parallel-mode plumbing: count tries and match bytes in a worker's
  /// ledger instead of charging the governor, and evaluate edge predicates
  /// through its private pattern scratch, so the engine never touches
  /// thread-unsafe shared state.
  void set_ledger(TaskLedger* ledger) { ledger_ = ledger; }
  void set_scratch(algebra::PatternScratch* scratch) { scratch_ = scratch; }

  /// Explores one pinned root: order[0] is mapped to `root` only, and the
  /// root's matches, stamps, tries and status land in `run`. The engine's
  /// counts keep accumulating across calls. The DFS fills local lists, so
  /// `run`, which shares cache lines with the neighbouring roots other
  /// workers run, is written once.
  void RunRoot(NodeId root, RootRun* run) {
    std::vector<algebra::MatchedGraph> matches;
    std::vector<uint64_t> stamps;
    ledger_->Restart();
    out_ = &matches;
    stamps_ = &stamps;
    matches_ = 0;
    status_ = Status::OK();
    pinned_root_ = root;
    Dfs(0);
    pinned_root_ = kInvalidNode;
    run->matches = std::move(matches);
    run->stamps = std::move(stamps);
    run->tries = ledger_->steps();
    run->bytes = ledger_->bytes();
    run->stopped = ledger_->stopped();
    run->status = status_;
  }

  /// What the engine did across its runs, counted in plain fields (no
  /// sharing) during the DFS.
  const SearchStats& stats() const { return stats_; }

 private:
  /// Conjunct j runs at position p(j): the largest, over every i <= j, of
  /// the order position that binds conjunct i's last node (0 for a
  /// conjunct that names none, the leaf for a `whole` one). Taking the
  /// prefix maximum keeps EvalGlobalPred's left-to-right order along every
  /// path. Sets placed_end_[pos] to one past the last conjunct placed at or
  /// before pos, and binds the assignment for evaluation once. A conjunct
  /// naming a node the order leaves out (position -1, so SIZE_MAX here)
  /// stays at the leaf with every later one, and so does every conjunct
  /// of an empty pattern, whose order has no position.
  void PlaceConjuncts() {
    pattern_.BindEmbedding(data_, assign_, edge_assign_, &bindings_);
    const std::vector<algebra::GraphPattern::GlobalConjunct>& conjuncts =
        pattern_.GlobalPreds();
    const size_t leaf = order_.size();
    placed_end_.assign(leaf, 0);
    size_t at = 0;
    for (size_t j = 0; j < conjuncts.size() && !conjuncts[j].whole; ++j) {
      for (NodeId n : conjuncts[j].nodes) {
        at = std::max(at, static_cast<size_t>(position_[n]));
      }
      if (at >= leaf) break;
      placed_end_[at] = static_cast<uint32_t>(j + 1);
    }
    for (size_t pos = 1; pos < leaf; ++pos) {
      placed_end_[pos] = std::max(placed_end_[pos], placed_end_[pos - 1]);
    }
  }

  /// Runs the conjuncts placed at order position `pos` on the prefix that
  /// just grew to it; false when one rejects the prefix, and with it every
  /// embedding extending it. A conjunct that fails to evaluate stays next:
  /// it reads only bound nodes, so it fails again at every deeper position
  /// and at the leaf, which raises the error if, and only if, a complete
  /// embedding is reached, as evaluating every conjunct there would.
  bool PrefixHolds(size_t pos) {
    if (placed_end_.empty() || done_ == placed_end_[pos]) return true;
    Result<bool> ok =
        pattern_.EvalGlobalPreds(bindings_, &done_, placed_end_[pos]);
    if (!ok.ok() || ok.value()) return true;
    ++stats_.pred_rejects;
    return false;
  }

  /// Charges the next `n` candidate tries with exactly the outcome of n
  /// single tries, each first counted against the try cap. Serially the
  /// governor takes the tries within the cap, and on a trip or at the cap
  /// `steps` ends on the try that stopped the search, as a one-by-one loop
  /// would leave it; in parallel the worker's ledger, which holds the cap
  /// too, counts them for the replay. Returns false when the search must
  /// stop.
  bool ChargeTries(uint64_t n) {
    if (n == 0) return true;
    stats_.steps += n;
    if (ledger_ != nullptr) return ledger_->Charge(n);
    const uint64_t allowed = std::min(n, tries_left_);
    tries_left_ -= allowed;
    if (options_.governor != nullptr) {
      const uint64_t accepted =
          options_.governor->ChargeEach(allowed, GovernPoint::kSearch);
      if (accepted < allowed) {
        stats_.steps -= n - accepted - 1;
        stats_.governor_tripped = true;
        return false;
      }
    }
    if (allowed == n) return true;
    stats_.steps -= n - allowed - 1;
    stats_.out_of_tries = true;
    return false;
  }

  /// Finds the first data edge from `from` to `to` compatible with pattern
  /// edge pe (kInvalidEdge if none). The (from, to) CSR run is contiguous
  /// and ascending in edge id, and the pattern edge's interned tag
  /// prefilters it without touching strings.
  EdgeId FindCompatibleEdge(EdgeId pe, NodeId from, NodeId to) {
    SymbolId want_tag = pattern_.edge_tag_sym(pe);
    for (const GraphSnapshot::AdjEntry& a : snap_.EdgesBetween(from, to)) {
      ++stats_.csr_edge_probes;
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
      ++stats_.edge_checks;
      if (!snap_.HasEdgeBetween(from, to)) return false;
      if (trivial_edge_[pe]) continue;  // Resolved at the leaf.
      EdgeId de = FindCompatibleEdge(pe, from, to);
      if (de == kInvalidEdge) return false;
      edge_assign_[pe] = de;
    }
    return true;
  }

  /// Binds each trivial pattern edge of a complete embedding to the edge a
  /// match reports for it: the lowest edge id in its (src, dst) run, as
  /// Graph::FindEdge yields. Runs before the leaf's conjuncts, which may
  /// read its attributes.
  void ResolveTrivialEdges() {
    for (EdgeId e : trivial_edges_) {
      const Graph::Edge& pe = p_.edge(e);
      edge_assign_[e] = snap_.FindFirstEdge(assign_[pe.src], assign_[pe.dst]);
    }
  }

  bool Emit() {
    algebra::MatchedGraph m;
    m.pattern = &pattern_;
    m.data = &data_;
    m.node_mapping = assign_;
    m.edge_mapping = edge_assign_;
    ++matches_;
    ++stats_.matches;
    // Account the emitted mapping vectors against the memory budget; the
    // reservation lives until the governor is re-armed (matches belong to
    // the query's transient result set).
    if (ledger_ != nullptr) {
      ledger_->Reserve(MatchBytes(m));
      stamps_->push_back(ledger_->steps());
    } else if (options_.governor != nullptr) {
      options_.governor->Reserve(MatchBytes(m), GovernPoint::kSearch);
    }
    out_->push_back(std::move(m));
    if (!options_.exhaustive) return false;
    if (matches_ >= options_.max_matches) {
      stats_.truncated = true;
      return false;
    }
    return true;
  }

  /// Maps u to v, runs the conjuncts placed at `pos`, searches the
  /// remaining positions if they hold, and undoes the assignment. Returns
  /// false to abort the whole search.
  bool Extend(size_t pos, NodeId u, NodeId v) {
    assign_[u] = v;
    used_[v] = 1;
    const size_t done = done_;
    const bool keep_going = !PrefixHolds(pos) || Dfs(pos + 1);
    done_ = done;
    used_[v] = 0;
    assign_[u] = kInvalidNode;
    ++stats_.backtracks;
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
      ResolveTrivialEdges();
      const size_t conjuncts = pattern_.GlobalPreds().size();
      if (done_ < conjuncts) {
        Result<bool> ok =
            pattern_.EvalGlobalPreds(bindings_, &done_, conjuncts);
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
      ++stats_.csr_edge_probes;
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
  TaskLedger* ledger_ = nullptr;
  std::vector<uint64_t>* stamps_ = nullptr;  ///< Per-root match stamps.
  algebra::PatternScratch* scratch_ = nullptr;
  NodeId pinned_root_ = kInvalidNode;

  std::vector<NodeId> assign_;
  std::vector<EdgeId> edge_assign_;
  std::vector<char> used_;
  std::vector<int> position_;
  std::vector<std::vector<EdgeId>> back_edges_;
  std::vector<char> trivial_edge_;
  std::vector<EdgeId> trivial_edges_;
  uint64_t tries_left_;  ///< Serial: tries the cap still allows.
  /// Residual conjuncts (PlaceConjuncts): the placement, the bindings they
  /// evaluate under, and how many hold on the current prefix. Empty and
  /// unused when the pattern has none.
  std::vector<uint32_t> placed_end_;
  algebra::Bindings bindings_;
  size_t done_ = 0;
  SearchStats stats_;
  size_t matches_ = 0;   ///< Matches this run (reset per pinned root).
  Status status_;
};

}  // namespace

void SearchStats::Add(const SearchStats& other) {
  steps += other.steps;
  edge_checks += other.edge_checks;
  backtracks += other.backtracks;
  matches += other.matches;
  csr_edge_probes += other.csr_edge_probes;
  pred_rejects += other.pred_rejects;
  truncated |= other.truncated;
  governor_tripped |= other.governor_tripped;
  out_of_tries |= other.out_of_tries;
}

size_t MatchBytes(const algebra::MatchedGraph& m) {
  return m.node_mapping.size() * sizeof(NodeId) +
         m.edge_mapping.size() * sizeof(EdgeId);
}

Result<std::vector<algebra::MatchedGraph>> SearchMatches(
    const algebra::GraphPattern& pattern, const Graph& data,
    const std::vector<std::vector<NodeId>>& candidates,
    const std::vector<NodeId>& order, const MatchOptions& options,
    SearchStats* stats, int num_threads, ThreadPool* pool,
    ThreadPool::RunStats* run_stats, uint64_t max_tries) {
  for (const std::vector<NodeId>& phi : candidates) {
    if (std::adjacent_find(phi.begin(), phi.end(),
                           std::greater_equal<NodeId>()) != phi.end()) {
      return Status::InvalidArgument(
          "candidate lists must be strictly ascending by node id");
    }
  }
  std::shared_ptr<const GraphSnapshot> snap = data.snapshot();
  const int workers = ResolveWorkers(num_threads, pool);
  if (workers < 2 || pattern.graph().NumNodes() == 0 ||
      order.size() != pattern.graph().NumNodes()) {
    std::vector<algebra::MatchedGraph> out;
    SearchEngine engine(pattern, data, *snap, candidates, order, options,
                        max_tries);
    Status status = engine.Run(&out);
    if (stats != nullptr) stats->Add(engine.stats());
    GQL_RETURN_IF_ERROR(status);
    return out;
  }
  const std::vector<NodeId>& roots = candidates[order[0]];
  if (roots.empty()) return std::vector<algebra::MatchedGraph>{};
  ThreadPool& tp = pool != nullptr ? *pool : ThreadPool::Shared();
  ResourceGovernor* gov = options.governor;

  const size_t n = roots.size();
  std::vector<RootRun> runs(n);
  struct WorkerState {
    std::unique_ptr<SearchEngine> engine;
    algebra::PatternScratch scratch;
    TaskLedger ledger;
  };
  std::vector<WorkerState> ws(static_cast<size_t>(workers));

  // The merge below keeps at most the match cap and stops where the step
  // or memory budget left now, or the try cap, runs out, so once finished
  // roots before r hold that many matches, tries or bytes, root r cannot
  // contribute.
  const TaskLedger budget(gov, max_tries);
  const uint64_t match_cap =
      options.exhaustive ? std::max<size_t>(options.max_matches, 1) : 1;
  RootCutoff cutoff(
      n, {match_cap,
          budget.steps_left() == UINT64_MAX ? UINT64_MAX
                                            : budget.steps_left() + 1,
          budget.bytes_left() == SIZE_MAX ? UINT64_MAX
                                          : budget.bytes_left() + 1});

  // Whichever worker runs the next task takes the next root, so roots
  // start in ascending order: when root r starts, each earlier root still
  // runs on another worker or has finished, and then its worker's next
  // fetch_add (acq_rel) carries its Finish() to r's Skip(). So the roots
  // that run hold at most the budget left plus one ledger's worth per
  // worker, and the low roots the merge keeps finish first.
  std::atomic<size_t> next_root{0};
  auto run_root = [&](size_t, int w) {
    const size_t r = next_root.fetch_add(1, std::memory_order_acq_rel);
    if (cutoff.Skip(r)) return;
    WorkerState& s = ws[static_cast<size_t>(w)];
    if (s.engine == nullptr) {
      s.ledger = budget;
      s.engine = std::make_unique<SearchEngine>(
          pattern, data, *snap, candidates, order, options, max_tries);
      s.engine->set_ledger(&s.ledger);
      s.engine->set_scratch(&s.scratch);
    }
    s.engine->RunRoot(roots[r], &runs[r]);
    cutoff.Finish(r, {runs[r].matches.size(), runs[r].tries, runs[r].bytes});
  };
  ThreadPool::RunStats run = tp.ParallelFor(n, workers, run_root);

  // The workers' counts; the merge below decides the flags.
  SearchStats work;
  for (const WorkerState& s : ws) {
    if (s.engine != nullptr) work.Add(s.engine->stats());
  }
  if (run_stats != nullptr) *run_stats = std::move(run);

  // Deterministic merge in root order, replaying the serial run: the
  // serial search visits the roots in this order, and each root's list
  // holds its matches in that root's DFS order. Per root the governor
  // takes the tries up to each match's stamp, then the match's bytes, and
  // after the last match the root's remaining tries — the calls the
  // serial engine makes, in its order. The first charge it refuses ends
  // the list there, so step, memory and fault trips cut where serial
  // does; the max_matches cap cuts at the same match, first-match mode
  // takes the first match, and an error surfaces only if the serial run
  // would reach it. Each charge counts its tries against the try cap
  // first, as the serial engine does, and the governor takes those within
  // it. A root its ledger stopped that the replay accepts in full saw the
  // governor expire: CheckNow() takes that trip.
  std::vector<algebra::MatchedGraph> out;
  bool truncated = false;
  bool tripped = false;
  bool out_of_tries = false;
  uint64_t tries_left = max_tries;
  Status status = Status::OK();
  auto charge = [&](uint64_t tries) {
    const uint64_t allowed = std::min(tries, tries_left);
    tries_left -= allowed;
    tripped = gov != nullptr &&
              gov->ChargeEach(allowed, GovernPoint::kSearch) < allowed;
    out_of_tries = !tripped && allowed < tries;
    return !tripped && !out_of_tries;
  };
  // False when the serial run stops inside this root.
  auto replay = [&](RootRun& root) {
    uint64_t charged = 0;
    for (size_t i = 0; i < root.matches.size(); ++i) {
      if (!charge(root.stamps[i] - charged)) return false;
      charged = root.stamps[i];
      if (gov != nullptr) {
        gov->Reserve(MatchBytes(root.matches[i]), GovernPoint::kSearch);
      }
      out.push_back(std::move(root.matches[i]));
      if (!options.exhaustive) return false;
      if (out.size() >= options.max_matches) {
        truncated = true;
        return false;
      }
    }
    if (!charge(root.tries - charged)) return false;
    if (root.stopped) {
      if (gov != nullptr) gov->CheckNow(GovernPoint::kSearch);
      tripped = true;
      return false;
    }
    status = root.status;
    return status.ok();
  };
  for (RootRun& root : runs) {
    if (!replay(root)) break;
  }
  if (stats != nullptr) {
    work.truncated = truncated;
    work.governor_tripped = tripped;
    work.out_of_tries = out_of_tries;
    stats->Add(work);
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
