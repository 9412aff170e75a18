// Reference implementations the match tests compare the engine against.
// None of them is used by src/: they are deliberately simple, slow, and
// written over the mutable Graph (adjacency lists, AST predicates) rather
// than the compiled GraphSnapshot the engine runs on, so a bug in the
// snapshot, the selection kernels, or the refine bitmaps shows up as a
// difference.

#ifndef GRAPHQL_TESTS_MATCH_ORACLE_H_
#define GRAPHQL_TESTS_MATCH_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <unordered_set>
#include <vector>

#include "algebra/pattern.h"
#include "graph/graph.h"
#include "match/bipartite.h"
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
/// order, per-pair neighbor lists, and removals applied at once. The
/// engine's RefineSearchSpace on one worker must leave the same spaces
/// (content and order) and report the same counters.
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

}  // namespace graphql::match::oracle

#endif  // GRAPHQL_TESTS_MATCH_ORACLE_H_
