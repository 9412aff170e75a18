#include "match/refine.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/packed_bits.h"
#include "match/bipartite.h"

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

void FlushRefineStats(const RefineStats& local, RefineStats* stats,
                      obs::MetricsRegistry* metrics) {
  if (stats != nullptr) {
    stats->bipartite_checks += local.bipartite_checks;
    stats->removed += local.removed;
    stats->dirty_skips += local.dirty_skips;
    stats->levels_run = local.levels_run;
    stats->pairs_charged += local.pairs_charged;
    stats->aborted |= local.aborted;
  }
  if (metrics != nullptr) {
    metrics->GetCounter("match.refine.bipartite_checks")
        ->Increment(local.bipartite_checks);
    metrics->GetCounter("match.refine.removed")->Increment(local.removed);
    metrics->GetCounter("match.refine.dirty_skips")
        ->Increment(local.dirty_skips);
    metrics->GetCounter("match.refine.levels")
        ->Increment(static_cast<uint64_t>(local.levels_run));
  }
}

}  // namespace

void RefineSearchSpace(const algebra::GraphPattern& pattern,
                       const GraphSnapshot& snap, int level,
                       std::vector<std::vector<NodeId>>* candidates,
                       RefineStats* stats, bool use_marking,
                       obs::MetricsRegistry* metrics,
                       ResourceGovernor* governor, int num_threads,
                       ThreadPool* pool, ThreadPool::RunStats* run_stats) {
  const Graph& p = pattern.graph();
  const size_t k = p.NumNodes();
  if (k == 0 || level <= 0) return;
  const size_t n = snap.num_nodes();
  const int workers = ResolveWorkers(num_threads, pool);
  const bool parallel = workers > 1;
  RefineStats local;

  // The calling thread removes pairs mid-level, so it walks a level-start
  // copy of the pending bits (`todo`); parallel levels walk a pair list
  // and touch the bitmaps only at the barrier.
  PackedBits in_cand(k, n);
  PackedBits marked(k, n);
  PackedBits todo = parallel ? PackedBits() : PackedBits(k, n);
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
  auto keeps = [&](NodeId u, NodeId v, std::vector<std::vector<int>>* adj,
                   uint64_t* checks) {
    const std::vector<NodeId>& nu = pnbr[u];
    if (nu.empty()) return true;  // Isolated pattern node: keep.
    std::span<const NodeId> nv = snap.unique_neighbors(v);
    adj->assign(nu.size(), {});
    for (size_t i = 0; i < nu.size(); ++i) {
      for (size_t j = 0; j < nv.size(); ++j) {
        if (in_cand.Test(nu[i], nv[j])) {
          (*adj)[i].push_back(static_cast<int>(j));
        }
      }
    }
    ++*checks;
    return HasSemiPerfectMatching(static_cast<int>(nu.size()),
                                  static_cast<int>(nv.size()), *adj);
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

  std::vector<std::vector<int>> adj;  // Calling thread's bipartite buffer.
  struct WorkerState {
    GovernorShard shard;
    std::vector<std::vector<int>> adj;
    uint64_t bipartite_checks = 0;
  };
  std::vector<WorkerState> ws(parallel ? static_cast<size_t>(workers) : 0);
  for (WorkerState& s : ws) {
    s.shard = GovernorShard(governor, GovernPoint::kRefine);
  }
  ThreadPool::RunStats runs;
  std::atomic<bool> aborted{false};

  for (int l = 0; l < level; ++l) {
    local.levels_run = l + 1;
    changed = false;
    const PackedBits& pending = use_marking ? marked : in_cand;
    if ((use_marking ? marked_count : live) == 0) break;
    if (!parallel) {
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
        const bool keep = keeps(u, v, &adj, &local.bipartite_checks);
        clear_mark(u, v);
        if (!keep) prune(u, v);
        return true;
      });
      if (local.aborted) break;
    } else {
      std::vector<std::pair<NodeId, NodeId>> pairs;
      pairs.reserve(use_marking ? marked_count : live);
      for_each_pair(pending, [&](NodeId u, NodeId v) {
        pairs.emplace_back(u, v);
        return true;
      });
      std::vector<char> failed(pairs.size(), 0);
      // The worklist and verdict buffer are the level's real transient
      // allocations (up to k*n pairs); released at the barrier.
      ScopedReserve level_mem(
          governor, pairs.size() * sizeof(pairs[0]) + failed.size(),
          GovernPoint::kRefine);
      ThreadPool& tp = pool != nullptr ? *pool : ThreadPool::Shared();
      runs.Merge(tp.ParallelFor(pairs.size(), workers, [&](size_t i, int w) {
        if (aborted.load(std::memory_order_relaxed)) return;
        WorkerState& s = ws[static_cast<size_t>(w)];
        if (!s.shard.Charge()) {
          aborted.store(true, std::memory_order_relaxed);
          return;
        }
        failed[i] = !keeps(pairs[i].first, pairs[i].second, &s.adj,
                           &s.bipartite_checks);
      }));
      if (aborted.load(std::memory_order_relaxed)) {
        // The level's verdicts are incomplete: discard them (earlier
        // levels' removals stand and are sound).
        local.aborted = true;
        break;
      }
      // Barrier: apply the buffered verdicts in pair order.
      for (size_t i = 0; i < pairs.size(); ++i) {
        clear_mark(pairs[i].first, pairs[i].second);
        if (failed[i]) prune(pairs[i].first, pairs[i].second);
      }
    }
    if (!changed && (!use_marking || marked_count == 0)) break;
  }

  // Write the surviving candidates back, preserving order.
  for (size_t u = 0; u < k; ++u) {
    std::vector<NodeId>& list = (*candidates)[u];
    list.erase(std::remove_if(list.begin(), list.end(),
                              [&](NodeId v) { return !in_cand.Test(u, v); }),
               list.end());
  }

  for (WorkerState& s : ws) {
    // A trip surfacing only at this final flush (small workloads never
    // reach an in-stage flush) still aborts the refinement: the pipeline's
    // degrade fallback then restores the unrefined space and refunds the
    // charge, as it does for a per-pair trip on the calling thread.
    if (!s.shard.Flush()) local.aborted = true;
    local.bipartite_checks += s.bipartite_checks;
    local.pairs_charged += s.shard.charged();
  }
  if (run_stats != nullptr) *run_stats = std::move(runs);
  FlushRefineStats(local, stats, metrics);
}

}  // namespace graphql::match
