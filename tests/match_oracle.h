// Reference implementations the match tests compare the engine against.
// None of them is used by src/: they are deliberately simple, slow, and
// written over the mutable Graph (adjacency lists, AST predicates) rather
// than the compiled GraphSnapshot the engine runs on, so a bug in the
// snapshot, the selection kernels, the neighborhood walker or the refine
// bitmaps shows up as a difference.

#ifndef GRAPHQL_TESTS_MATCH_ORACLE_H_
#define GRAPHQL_TESTS_MATCH_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <set>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "algebra/pattern.h"
#include "graph/graph.h"
#include "common/governor.h"
#include "common/symbols.h"
#include "match/cost.h"
#include "match/label_index.h"
#include "match/matcher.h"
#include "match/pipeline.h"
#include "match/profile.h"
#include "match/refine.h"

namespace graphql::match::oracle {

/// Exhaustive reference matcher: tries every injective assignment of
/// pattern nodes to data nodes (factorial; tiny inputs only). Returns the
/// set of node mappings that satisfy node compatibility, edge existence
/// and the global predicate.
inline std::set<std::vector<NodeId>> BruteForceMatches(
    const algebra::GraphPattern& p, const Graph& g) {
  size_t k = p.graph().NumNodes();
  std::set<std::vector<NodeId>> out;
  std::vector<NodeId> assign(k, kInvalidNode);
  std::vector<char> used(g.NumNodes(), 0);
  std::function<void(size_t)> go = [&](size_t u) {
    if (u == k) {
      for (size_t e = 0; e < p.graph().NumEdges(); ++e) {
        const Graph::Edge& pe = p.graph().edge(static_cast<EdgeId>(e));
        if (!g.HasEdgeBetween(assign[pe.src], assign[pe.dst])) return;
      }
      if (p.has_global_pred()) {
        auto r = p.EvalGlobalPred(g, assign, {});
        if (!r.ok() || !r.value()) return;
      }
      out.insert(assign);
      return;
    }
    for (size_t v = 0; v < g.NumNodes(); ++v) {
      if (used[v]) continue;
      if (!p.NodeCompatible(static_cast<NodeId>(u), g,
                            static_cast<NodeId>(v))) {
        continue;
      }
      assign[u] = static_cast<NodeId>(v);
      used[v] = 1;
      go(u + 1);
      used[v] = 0;
      assign[u] = kInvalidNode;
    }
  };
  go(0);
  return out;
}

/// First phase of Algorithm 4.1 without any index or kernel: scans all
/// data nodes in id order and keeps those passing the AST feasible-mate
/// test F_u. The "Baseline" retrieval of Section 5.
inline std::vector<std::vector<NodeId>> ScanCandidates(
    const algebra::GraphPattern& pattern, const Graph& data) {
  const Graph& p = pattern.graph();
  std::vector<std::vector<NodeId>> out(p.NumNodes());
  for (size_t u = 0; u < p.NumNodes(); ++u) {
    for (size_t v = 0; v < data.NumNodes(); ++v) {
      if (pattern.NodeCompatible(static_cast<NodeId>(u), data,
                                 static_cast<NodeId>(v))) {
        out[u].push_back(static_cast<NodeId>(v));
      }
    }
  }
  return out;
}

/// The profile of node v over the Graph's adjacency lists: labels of every
/// node within `radius` hops (hop 0 = v itself), sorted, interned through
/// SymbolTable::Global(). Unlabeled nodes contribute nothing.
/// match::BuildProfile over the snapshot must return the same profile.
inline Profile BuildProfile(const Graph& g, NodeId v, int radius) {
  SymbolTable& syms = SymbolTable::Global();
  Profile profile;
  std::vector<int> dist(g.NumNodes(), -1);
  std::vector<NodeId> frontier = {v};
  dist[v] = 0;
  auto add_label = [&](NodeId x) {
    std::string_view label = g.Label(x);
    if (!label.empty()) profile.push_back(syms.Intern(label));
  };
  add_label(v);
  for (int d = 1; d <= radius && !frontier.empty(); ++d) {
    std::vector<NodeId> next;
    auto visit = [&](NodeId x) {
      if (dist[x] >= 0) return;
      dist[x] = d;
      next.push_back(x);
      add_label(x);
    };
    for (NodeId x : frontier) {
      for (const Graph::Adj& a : g.neighbors(x)) visit(a.node);
      if (g.directed()) {
        for (const Graph::Adj& a : g.in_neighbors(x)) visit(a.node);
      }
    }
    frontier = std::move(next);
  }
  std::sort(profile.begin(), profile.end());
  return profile;
}

/// Profile-mode retrieval (Section 4.2) without an index: ScanCandidates,
/// then each candidate v of pattern node u kept only if u's profile is
/// contained in v's, both built as heap profiles by the builder-graph
/// BuildProfile above and compared with ProfileContains.
inline std::vector<std::vector<NodeId>> ProfileCandidates(
    const algebra::GraphPattern& pattern, const Graph& data, int radius) {
  std::vector<std::vector<NodeId>> out = ScanCandidates(pattern, data);
  std::vector<Profile> profiles(data.NumNodes());
  for (size_t v = 0; v < data.NumNodes(); ++v) {
    profiles[v] = BuildProfile(data, static_cast<NodeId>(v), radius);
  }
  for (size_t u = 0; u < out.size(); ++u) {
    const Profile want =
        BuildProfile(pattern.graph(), static_cast<NodeId>(u), radius);
    std::erase_if(out[u], [&](NodeId v) {
      return !ProfileContains(profiles[v], want);
    });
  }
  return out;
}

/// A neighborhood subgraph (Definition 4.10) as its own builder Graph:
/// every node within `radius` hops of the center, in adjacency-list BFS
/// order with the center at local id 0, and every edge among them. Only
/// the labels are kept, interned, parallel to `sub`'s node ids.
struct GraphNeighborhood {
  Graph sub;
  std::vector<SymbolId> label_syms;  ///< kNoSymbol when unlabeled.
};

inline GraphNeighborhood ExtractNeighborhood(const Graph& g, NodeId v,
                                             int radius) {
  GraphNeighborhood out;
  std::vector<NodeId> local(g.NumNodes(), kInvalidNode);
  std::vector<NodeId> members = {v};
  local[v] = 0;
  auto visit = [&](NodeId x) {
    if (local[x] != kInvalidNode) return;
    local[x] = static_cast<NodeId>(members.size());
    members.push_back(x);
  };
  size_t frontier_begin = 0;
  for (int d = 1; d <= radius; ++d) {
    const size_t frontier_end = members.size();
    for (size_t i = frontier_begin; i < frontier_end; ++i) {
      for (const Graph::Adj& a : g.neighbors(members[i])) visit(a.node);
      if (g.directed()) {
        for (const Graph::Adj& a : g.in_neighbors(members[i])) visit(a.node);
      }
    }
    frontier_begin = frontier_end;
  }
  out.sub = Graph("", g.directed());
  for (NodeId x : members) {
    std::string_view label = g.Label(x);
    out.label_syms.push_back(
        label.empty() ? kNoSymbol : SymbolTable::Global().Intern(label));
    out.sub.AddNode("");
  }
  // Directed adjacency lists each edge once, at its source; undirected at
  // both endpoints (a self-loop once), so keep it at its stored source.
  for (size_t i = 0; i < members.size(); ++i) {
    for (const Graph::Adj& a : g.neighbors(members[i])) {
      if (local[a.node] == kInvalidNode) continue;
      if (g.directed() || g.edge(a.edge).src == members[i]) {
        out.sub.AddEdge(static_cast<NodeId>(i), local[a.node]);
      }
    }
  }
  return out;
}

/// The neighborhood pruning test over builder graphs: the query's
/// non-center nodes, in BFS order over the query's adjacency lists from
/// the center, map injectively onto the data's non-center nodes with equal
/// labels (an unlabeled query node is a wildcard) and the query edges
/// among them; the centers map to each other. Ungoverned.
inline bool NeighborhoodSubIsomorphic(const GraphNeighborhood& query,
                                      const GraphNeighborhood& data) {
  const Graph& q = query.sub;
  const Graph& d = data.sub;
  if (q.NumNodes() > d.NumNodes() || q.NumEdges() > d.NumEdges()) {
    return false;
  }
  auto node_ok = [&](NodeId qu, NodeId dv) {
    const SymbolId ql = query.label_syms[qu];
    return ql == kNoSymbol || ql == data.label_syms[dv];
  };
  if (!node_ok(0, 0)) return false;
  std::vector<NodeId> order;
  std::vector<char> seen(q.NumNodes(), 0);
  std::vector<NodeId> bfs = {0};
  seen[0] = 1;
  for (size_t i = 0; i < bfs.size(); ++i) {
    for (const Graph::Adj& a : q.neighbors(bfs[i])) {
      if (seen[a.node]) continue;
      seen[a.node] = 1;
      bfs.push_back(a.node);
      order.push_back(a.node);
    }
  }
  for (size_t v = 0; v < q.NumNodes(); ++v) {
    if (!seen[v]) order.push_back(static_cast<NodeId>(v));
  }
  std::vector<NodeId> assign(q.NumNodes(), kInvalidNode);
  std::vector<char> used(d.NumNodes(), 0);
  assign[0] = 0;
  used[0] = 1;
  std::function<bool(size_t)> dfs = [&](size_t i) {
    if (i == order.size()) return true;
    const NodeId qu = order[i];
    for (size_t dv = 0; dv < d.NumNodes(); ++dv) {
      const NodeId v = static_cast<NodeId>(dv);
      if (used[dv] || !node_ok(qu, v)) continue;
      bool edges_ok = true;
      for (size_t j = 0; j < i && edges_ok; ++j) {
        const NodeId qw = order[j];
        edges_ok = (!q.HasEdgeBetween(qu, qw) ||
                    d.HasEdgeBetween(v, assign[qw])) &&
                   (!q.directed() || !q.HasEdgeBetween(qw, qu) ||
                    d.HasEdgeBetween(assign[qw], v));
      }
      if (!edges_ok) continue;
      assign[qu] = v;
      used[dv] = 1;
      if (dfs(i + 1)) return true;
      used[dv] = 0;
      assign[qu] = kInvalidNode;
    }
    return false;
  };
  return dfs(0);
}

/// Neighborhood-mode retrieval (Section 4.2) without an index:
/// ScanCandidates, then each candidate v of pattern node u kept only if
/// u's builder-graph neighborhood is sub-isomorphic to v's.
inline std::vector<std::vector<NodeId>> NeighborhoodCandidates(
    const algebra::GraphPattern& pattern, const Graph& data, int radius) {
  std::vector<std::vector<NodeId>> out = ScanCandidates(pattern, data);
  std::vector<GraphNeighborhood> hoods;
  for (size_t v = 0; v < data.NumNodes(); ++v) {
    hoods.push_back(ExtractNeighborhood(data, static_cast<NodeId>(v), radius));
  }
  for (size_t u = 0; u < out.size(); ++u) {
    const GraphNeighborhood want =
        ExtractNeighborhood(pattern.graph(), static_cast<NodeId>(u), radius);
    std::erase_if(out[u], [&](NodeId v) {
      return !NeighborhoodSubIsomorphic(want, hoods[v]);
    });
  }
  return out;
}

/// Where ScanSearch evaluates the residual conjuncts of the graph-wide
/// predicate: as soon as the search has bound what they read (the
/// engine's rule), or only on complete embeddings, as Algorithm 4.1 is
/// written.
enum class Conjuncts { kPlaced, kLeaf };

/// Algorithm 4.1's Search as written: every order position scans all of
/// Phi(u) in list order and Checks each unmapped candidate against the
/// mapped prefix over the Graph's adjacency lists. Each try is one step,
/// charged to the governor with Charge(1); each emitted match reserves its
/// mapping bytes. Edges without attributes or predicates resolve to their
/// lowest-id data edge once the embedding is complete, before the
/// conjuncts that run there, which may read their attributes.
///
/// With Conjuncts::kPlaced, each assignment that passes Check runs, in
/// textual order, every residual conjunct not yet run whose nodes are now
/// all mapped, stopping at the first that still waits for a node or needs
/// the complete embedding; a false one drops the assignment (one
/// `pred_rejects`), and one that fails to evaluate stays next, failing
/// again deeper, so its error is returned at the first complete embedding
/// the subtree reaches. With Conjuncts::kLeaf every conjunct runs on
/// complete embeddings; both give the same matches and status when no
/// budget trips. SearchMatches must return the same matches
/// (content and order) as either and leave the kPlaced steps, backtracks,
/// pred_rejects and trip flags in `stats` (overwritten) at every budget.
inline Result<std::vector<algebra::MatchedGraph>> ScanSearch(
    const algebra::GraphPattern& pattern, const Graph& data,
    const std::vector<std::vector<NodeId>>& candidates,
    const std::vector<NodeId>& order, const MatchOptions& options = {},
    SearchStats* stats = nullptr, Conjuncts conjuncts = Conjuncts::kPlaced) {
  const Graph& p = pattern.graph();
  const size_t k = p.NumNodes();
  if (order.size() != k) {
    return Status::InvalidArgument(
        "search order must cover every pattern node");
  }
  std::vector<int> position(k, -1);
  for (size_t i = 0; i < k; ++i) position[order[i]] = static_cast<int>(i);
  std::vector<std::vector<EdgeId>> back(k);
  for (size_t e = 0; e < p.NumEdges(); ++e) {
    const Graph::Edge& pe = p.edge(static_cast<EdgeId>(e));
    back[std::max(position[pe.src], position[pe.dst])].push_back(
        static_cast<EdgeId>(e));
  }
  std::vector<NodeId> assign(k, kInvalidNode);
  std::vector<EdgeId> edge_assign(p.NumEdges(), kInvalidEdge);
  std::vector<char> used(data.NumNodes(), 0);
  std::vector<algebra::MatchedGraph> out;
  SearchStats local;
  Status status;

  // The residual conjuncts, evaluated one by one under bindings of the
  // growing assignment. `ran` counts the conjuncts that hold on the
  // current prefix, in textual order.
  const std::vector<algebra::GraphPattern::GlobalConjunct>& preds =
      pattern.GlobalPreds();
  algebra::Bindings bindings;
  pattern.BindEmbedding(data, assign, edge_assign, &bindings);
  size_t ran = 0;
  auto ready = [&](size_t j) {
    if (conjuncts == Conjuncts::kLeaf || preds[j].whole) return false;
    for (NodeId n : preds[j].nodes) {
      if (assign[n] == kInvalidNode) return false;
    }
    return true;
  };
  // False when a conjunct rejects the prefix, and the error of one that
  // fails to evaluate, which stays next; with `leaf`, every remaining
  // conjunct runs.
  auto run_conjuncts = [&](bool leaf) -> Result<bool> {
    for (; ran < preds.size() && (leaf || ready(ran)); ++ran) {
      GQL_ASSIGN_OR_RETURN(bool holds,
                           algebra::EvalPredicate(*preds[ran].expr, bindings));
      if (!holds) {
        if (!leaf) ++local.pred_rejects;
        return false;
      }
    }
    return true;
  };

  auto trivial = [&](EdgeId pe) {
    return p.edge(pe).attrs.empty() && !pattern.EdgeHasPredicates(pe);
  };
  auto check = [&](size_t pos, NodeId u, NodeId v) {
    for (EdgeId pe : back[pos]) {
      const Graph::Edge& e = p.edge(pe);
      NodeId from = e.src == u ? v : assign[e.src];
      NodeId to = e.dst == u ? v : assign[e.dst];
      if (!data.HasEdgeBetween(from, to)) return false;
      if (trivial(pe)) continue;
      edge_assign[pe] = kInvalidEdge;
      for (const Graph::Adj& a : data.neighbors(from)) {
        if (a.node != to || !pattern.EdgeCompatible(pe, data, a.edge)) continue;
        if (edge_assign[pe] == kInvalidEdge || a.edge < edge_assign[pe]) {
          edge_assign[pe] = a.edge;
        }
      }
      if (edge_assign[pe] == kInvalidEdge) return false;
    }
    return true;
  };
  auto emit = [&]() {
    algebra::MatchedGraph m;
    m.pattern = &pattern;
    m.data = &data;
    m.node_mapping = assign;
    m.edge_mapping = edge_assign;
    if (options.governor != nullptr) {
      options.governor->Reserve(
          m.node_mapping.size() * sizeof(NodeId) +
              m.edge_mapping.size() * sizeof(EdgeId),
          GovernPoint::kSearch);
    }
    out.push_back(std::move(m));
    if (!options.exhaustive) return false;
    if (out.size() >= options.max_matches) {
      local.truncated = true;
      return false;
    }
    return true;
  };
  std::function<bool(size_t)> search = [&](size_t pos) {
    if (pos == k) {
      for (size_t e = 0; e < p.NumEdges(); ++e) {
        const Graph::Edge& pe = p.edge(static_cast<EdgeId>(e));
        if (trivial(static_cast<EdgeId>(e))) {
          edge_assign[e] = data.FindEdge(assign[pe.src], assign[pe.dst]);
        }
      }
      const size_t saved = ran;
      Result<bool> holds = run_conjuncts(/*leaf=*/true);
      ran = saved;
      if (!holds.ok()) {
        status = holds.status();
        return false;
      }
      if (!*holds) return true;
      return emit();
    }
    NodeId u = order[pos];
    for (NodeId v : candidates[u]) {
      if (used[v]) continue;
      ++local.steps;
      if (options.governor != nullptr &&
          !options.governor->Charge(1, GovernPoint::kSearch)) {
        local.governor_tripped = true;
        return false;
      }
      if (!check(pos, u, v)) continue;
      assign[u] = v;
      used[v] = 1;
      // An error waits for the leaf: the conjunct that raised it fails
      // again at each deeper assignment and there.
      const size_t saved = ran;
      Result<bool> holds = run_conjuncts(/*leaf=*/false);
      bool keep_going = (holds.ok() && !*holds) || search(pos + 1);
      ran = saved;
      used[v] = 0;
      assign[u] = kInvalidNode;
      ++local.backtracks;
      if (!keep_going) return false;
    }
    return true;
  };
  if (k != 0) search(0);
  if (stats != nullptr) *stats = local;
  if (!status.ok()) return status;
  return out;
}

/// Maximum bipartite matching by Hopcroft–Karp (O(E sqrt(V))), the
/// algorithm the paper cites for refinement. `adj[l]` lists the right-side
/// vertices adjacent to left vertex l; returns the matching's size.
inline int MaxBipartiteMatching(int n_left, int n_right,
                                const std::vector<std::vector<int>>& adj) {
  constexpr int kInf = std::numeric_limits<int>::max();
  constexpr int kNil = -1;
  std::vector<int> match_left(n_left, kNil);
  std::vector<int> match_right(n_right, kNil);
  std::vector<int> dist(n_left, kInf);
  auto bfs = [&] {
    std::queue<int> q;
    for (int l = 0; l < n_left; ++l) {
      dist[l] = match_left[l] == kNil ? 0 : kInf;
      if (dist[l] == 0) q.push(l);
    }
    bool found_augmenting = false;
    while (!q.empty()) {
      int l = q.front();
      q.pop();
      for (int r : adj[l]) {
        int l2 = match_right[r];
        if (l2 == kNil) {
          found_augmenting = true;
        } else if (dist[l2] == kInf) {
          dist[l2] = dist[l] + 1;
          q.push(l2);
        }
      }
    }
    return found_augmenting;
  };
  std::function<bool(int)> dfs = [&](int l) {
    for (int r : adj[l]) {
      int l2 = match_right[r];
      if (l2 == kNil || (dist[l2] == dist[l] + 1 && dfs(l2))) {
        match_left[l] = r;
        match_right[r] = l;
        return true;
      }
    }
    dist[l] = kInf;
    return false;
  };
  int matching = 0;
  while (bfs()) {
    for (int l = 0; l < n_left; ++l) {
      if (match_left[l] == kNil && dfs(l)) ++matching;
    }
  }
  return matching;
}

/// True iff a semi-perfect matching exists: every left vertex matched (the
/// condition of Algorithm 4.2 / pseudo subgraph isomorphism).
inline bool HasSemiPerfectMatching(int n_left, int n_right,
                                   const std::vector<std::vector<int>>& adj) {
  return n_left <= n_right &&
         MaxBipartiteMatching(n_left, n_right, adj) == n_left;
}

/// Unique undirected neighbor list over the Graph's adjacency lists.
inline std::vector<NodeId> UniqueNeighbors(const Graph& g, NodeId v) {
  std::vector<NodeId> out;
  for (const Graph::Adj& a : g.neighbors(v)) out.push_back(a.node);
  if (g.directed()) {
    for (const Graph::Adj& a : g.in_neighbors(v)) out.push_back(a.node);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Algorithm 4.2 written directly over the mutable Graph: a byte
/// membership matrix, a hashed dirty-pair set drained in sorted (u, v)
/// order, per-pair neighbor lists, Hopcroft–Karp for every B(u, v) test,
/// and removals applied at once. The engine's RefineSearchSpace must leave
/// the same spaces (content and order) and report the same counters,
/// `pairs_charged` included: one per pair visited.
inline void ReferenceRefine(const algebra::GraphPattern& pattern,
                            const Graph& data, int level,
                            std::vector<std::vector<NodeId>>* candidates,
                            bool use_marking = true,
                            RefineStats* stats = nullptr) {
  const Graph& p = pattern.graph();
  const size_t k = p.NumNodes();
  if (k == 0 || level <= 0) return;
  RefineStats local;
  auto key = [](NodeId u, NodeId v) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(u)) << 32) |
           static_cast<uint32_t>(v);
  };
  std::vector<std::vector<NodeId>> pnbr(k);
  for (size_t u = 0; u < k; ++u) {
    pnbr[u] = UniqueNeighbors(p, static_cast<NodeId>(u));
  }
  std::vector<std::vector<char>> in_cand(k,
                                         std::vector<char>(data.NumNodes(), 0));
  std::unordered_set<uint64_t> marked;
  for (size_t u = 0; u < k; ++u) {
    for (NodeId v : (*candidates)[u]) {
      in_cand[u][v] = 1;
      marked.insert(key(static_cast<NodeId>(u), v));
    }
  }

  std::vector<std::vector<int>> adj;
  for (int l = 0; l < level; ++l) {
    local.levels_run = l + 1;
    std::vector<uint64_t> todo;
    if (use_marking) {
      todo.assign(marked.begin(), marked.end());
      std::sort(todo.begin(), todo.end());
    } else {
      for (size_t u = 0; u < k; ++u) {
        for (NodeId v : (*candidates)[u]) {
          if (in_cand[u][v]) todo.push_back(key(static_cast<NodeId>(u), v));
        }
      }
    }
    if (todo.empty()) break;
    bool changed = false;
    for (uint64_t pair : todo) {
      ++local.pairs_charged;
      NodeId u = static_cast<NodeId>(pair >> 32);
      NodeId v = static_cast<NodeId>(pair & 0xffffffffu);
      if (!in_cand[u][v]) {
        ++local.dirty_skips;
        continue;
      }
      const std::vector<NodeId>& nu = pnbr[u];
      if (nu.empty()) {
        marked.erase(pair);
        continue;
      }
      std::vector<NodeId> nv = UniqueNeighbors(data, v);
      adj.assign(nu.size(), {});
      for (size_t i = 0; i < nu.size(); ++i) {
        for (size_t j = 0; j < nv.size(); ++j) {
          if (in_cand[nu[i]][nv[j]]) adj[i].push_back(static_cast<int>(j));
        }
      }
      ++local.bipartite_checks;
      marked.erase(pair);
      if (HasSemiPerfectMatching(static_cast<int>(nu.size()),
                                 static_cast<int>(nv.size()), adj)) {
        continue;
      }
      in_cand[u][v] = 0;
      changed = true;
      ++local.removed;
      for (NodeId u2 : nu) {
        for (NodeId v2 : nv) {
          if (in_cand[u2][v2]) marked.insert(key(u2, v2));
        }
      }
    }
    if (!changed && (!use_marking || marked.empty())) break;
  }

  for (size_t u = 0; u < k; ++u) {
    std::vector<NodeId>& list = (*candidates)[u];
    list.erase(std::remove_if(list.begin(), list.end(),
                              [&](NodeId v) { return !in_cand[u][v]; }),
               list.end());
  }
  if (stats != nullptr) *stats = local;
}

/// Largest pattern DpSearchOrder accepts (2^k subsets).
inline constexpr size_t kMaxDpPatternSize = 20;

/// Exact left-deep search-order selection by dynamic programming over
/// node subsets (O(2^k k^2)), the reference GreedySearchOrder is measured
/// against. The paper observes that "traditional dynamic programming does
/// not scale well with the number of joins", motivating its greedy
/// choice. The estimated size of a joined subset is order-independent
/// (each edge's reduction factor applies exactly once, when its second
/// endpoint joins), which makes the subset DP exact for the cost model of
/// Definitions 4.11-4.13 as EstimateOrderCost evaluates it. Fails with
/// InvalidArgument above kMaxDpPatternSize nodes.
inline Result<std::vector<NodeId>> DpSearchOrder(
    const algebra::GraphPattern& pattern,
    const std::vector<std::vector<NodeId>>& candidates,
    const LabelIndex* index, const OrderOptions& options = {}) {
  const Graph& p = pattern.graph();
  const size_t k = p.NumNodes();
  if (k > kMaxDpPatternSize) {
    return Status::InvalidArgument(
        "DP ordering supports patterns up to " +
        std::to_string(kMaxDpPatternSize) + " nodes, got " +
        std::to_string(k));
  }
  if (k == 0) return std::vector<NodeId>{};
  std::vector<SymbolId> labels(k, kNoSymbol);
  for (size_t u = 0; index != nullptr && u < k; ++u) {
    std::string_view l = p.Label(static_cast<NodeId>(u));
    if (!l.empty()) labels[u] = SymbolTable::Global().Lookup(l);
  }
  // The reduction factor of joining u to `set`: one edge probability per
  // pattern edge between u and a member (Definition 4.11).
  auto gamma = [&](size_t u, size_t set) {
    double g = 1.0;
    auto fold = [&](NodeId w) {
      if (!((set >> w) & 1)) return;
      double p_edge = options.constant_gamma;
      if (options.use_edge_probs && index != nullptr &&
          labels[u] != kNoSymbol && labels[w] != kNoSymbol) {
        p_edge = index->EdgeProbability(labels[u], labels[w],
                                        options.constant_gamma);
      }
      g *= p_edge;
    };
    for (const Graph::Adj& a : p.neighbors(static_cast<NodeId>(u))) {
      fold(a.node);
    }
    if (p.directed()) {
      for (const Graph::Adj& a : p.in_neighbors(static_cast<NodeId>(u))) {
        fold(a.node);
      }
    }
    return g;
  };

  const size_t num_subsets = size_t{1} << k;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // size_of[S]: estimated cardinality of the join over subset S;
  // best[S]: minimal accumulated cost reaching S; last[S]: the node
  // joined last on an optimal path.
  std::vector<double> size_of(num_subsets, 0.0);
  std::vector<double> best(num_subsets, kInf);
  std::vector<int> last(num_subsets, -1);
  size_of[0] = 1.0;
  best[0] = 0.0;
  for (size_t set = 1; set < num_subsets; ++set) {
    size_t u = 0;
    while (!(set & (size_t{1} << u))) ++u;
    const size_t prev = set & ~(size_t{1} << u);
    size_of[set] = size_of[prev] *
                   static_cast<double>(candidates[u].size()) * gamma(u, prev);
    const bool first_node = (set & (set - 1)) == 0;
    for (size_t v = 0; v < k; ++v) {
      if (!(set & (size_t{1} << v))) continue;
      const size_t before = set & ~(size_t{1} << v);
      if (best[before] == kInf) continue;
      const double join_cost =
          first_node ? 0.0
                     : size_of[before] *
                           static_cast<double>(candidates[v].size());
      if (best[before] + join_cost < best[set]) {
        best[set] = best[before] + join_cost;
        last[set] = static_cast<int>(v);
      }
    }
  }
  std::vector<NodeId> order(k);
  size_t set = num_subsets - 1;
  for (size_t i = k; i-- > 0;) {
    const int v = last[set];
    order[i] = static_cast<NodeId>(v);
    set &= ~(size_t{1} << v);
  }
  return order;
}

}  // namespace graphql::match::oracle

#endif  // GRAPHQL_TESTS_MATCH_ORACLE_H_
