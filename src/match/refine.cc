#include "match/refine.h"

#include <algorithm>

#include "common/packed_bits.h"

namespace graphql::match {

namespace {

/// Unique undirected neighbor list of a pattern node (parallel edges
/// collapsed; for directed graphs, in- and out-neighbors are merged — this
/// weakens but never unsounds the pruning). The data side reads the same
/// sorted, deduplicated lists from GraphSnapshot::unique_neighbors.
std::vector<NodeId> UniqueNeighbors(const Graph& g, NodeId v) {
  std::vector<NodeId> out;
  out.reserve(g.Degree(v));
  for (const Graph::Adj& a : g.neighbors(v)) out.push_back(a.node);
  if (g.directed()) {
    for (const Graph::Adj& a : g.in_neighbors(v)) out.push_back(a.node);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

bool SemiPerfectMatcher::Augment(uint32_t row) {
  for (uint32_t i = adj_start_[row]; i < adj_start_[row + 1]; ++i) {
    const uint32_t c = adj_[i];
    if (seen_[c] == visit_) continue;
    seen_[c] = visit_;
    if (taken_[c] != round_ || Augment(mate_[c])) {
      Take(c, row);
      return true;
    }
  }
  return false;
}

void RefineStats::Add(const RefineStats& later) {
  bipartite_checks += later.bipartite_checks;
  removed += later.removed;
  dirty_skips += later.dirty_skips;
  levels_run = later.levels_run;
  pairs_charged += later.pairs_charged;
  aborted |= later.aborted;
}

void RefineSearchSpace(const algebra::GraphPattern& pattern,
                       const GraphSnapshot& snap, int level,
                       std::vector<std::vector<NodeId>>* candidates,
                       RefineStats* stats, bool use_marking,
                       ResourceGovernor* governor) {
  const Graph& p = pattern.graph();
  const size_t k = p.NumNodes();
  if (k == 0 || level <= 0) return;
  const size_t n = snap.num_nodes();
  RefineStats local;

  // Pairs are removed mid-level, so each level walks a level-start copy of
  // the pending bits (`todo`).
  PackedBits in_cand(k, n);
  PackedBits marked(k, n);
  PackedBits todo(k, n);
  ScopedReserve bitmap_mem(governor,
                           in_cand.bytes() + marked.bytes() + todo.bytes(),
                           GovernPoint::kRefine);

  std::vector<std::vector<NodeId>> pnbr(k);
  for (size_t u = 0; u < k; ++u) {
    pnbr[u] = UniqueNeighbors(p, static_cast<NodeId>(u));
  }

  size_t live = 0;          // Bits set in in_cand.
  size_t marked_count = 0;  // Bits set in marked (always within in_cand).
  for (size_t u = 0; u < k; ++u) {
    for (NodeId v : (*candidates)[u]) {
      if (in_cand.Test(u, v)) continue;
      in_cand.Set(u, v);
      marked.Set(u, v);
      ++live;
      ++marked_count;
    }
  }

  // B(u, v) test: true while every pattern neighbor of u can be matched to
  // a distinct data neighbor of v that is still its candidate.
  SemiPerfectMatcher matcher;
  auto keeps = [&](NodeId u, NodeId v) {
    const std::vector<NodeId>& nu = pnbr[u];
    if (nu.empty()) return true;  // Isolated pattern node: keep.
    std::span<const NodeId> nv = snap.unique_neighbors(v);
    ++local.bipartite_checks;
    return matcher.Test(nu.size(), nv.size(), [&](size_t i, size_t j) {
      return in_cand.Test(nu[i], nv[j]);
    });
  };

  bool changed = false;
  auto clear_mark = [&](NodeId u, NodeId v) {
    if (marked.Test(u, v)) {
      marked.Clear(u, v);
      --marked_count;
    }
  };
  // Drops v from Phi(u) and marks the pairs whose test the removal can flip.
  auto prune = [&](NodeId u, NodeId v) {
    in_cand.Clear(u, v);
    --live;
    changed = true;
    ++local.removed;
    for (NodeId u2 : pnbr[u]) {
      for (NodeId v2 : snap.unique_neighbors(v)) {
        if (in_cand.Test(u2, v2) && !marked.Test(u2, v2)) {
          marked.Set(u2, v2);
          ++marked_count;
        }
      }
    }
  };
  // Visits the pairs set in `pending` in processing order — ascending
  // (u, v) with marking, candidate-list order without — until fn is false.
  auto for_each_pair = [&](const PackedBits& pending, auto&& fn) {
    for (size_t u = 0; u < k; ++u) {
      const NodeId pu = static_cast<NodeId>(u);
      if (use_marking) {
        if (!pending.ForEachInRow(u, [&](size_t v) {
              return fn(pu, static_cast<NodeId>(v));
            })) {
          return;
        }
        continue;
      }
      for (NodeId v : (*candidates)[u]) {
        if (pending.Test(u, v) && !fn(pu, v)) return;
      }
    }
  };

  for (int l = 0; l < level; ++l) {
    local.levels_run = l + 1;
    changed = false;
    const PackedBits& pending = use_marking ? marked : in_cand;
    if ((use_marking ? marked_count : live) == 0) break;
    todo.CopyFrom(pending);
    for_each_pair(todo, [&](NodeId u, NodeId v) {
      ++local.pairs_charged;
      if (!GovCharge(governor, 1, GovernPoint::kRefine)) {
        local.aborted = true;
        return false;
      }
      if (!in_cand.Test(u, v)) {  // Already removed this level.
        ++local.dirty_skips;
        return true;
      }
      const bool keep = keeps(u, v);
      clear_mark(u, v);
      if (!keep) prune(u, v);
      return true;
    });
    if (local.aborted) break;
    if (!changed && (!use_marking || marked_count == 0)) break;
  }

  // Write the surviving candidates back, preserving order.
  for (size_t u = 0; u < k; ++u) {
    std::vector<NodeId>& list = (*candidates)[u];
    list.erase(std::remove_if(list.begin(), list.end(),
                              [&](NodeId v) { return !in_cand.Test(u, v); }),
               list.end());
  }

  if (stats != nullptr) stats->Add(local);
}

}  // namespace graphql::match
