#include "match/neighborhood.h"

#include <algorithm>

namespace graphql::match {

NeighborhoodWalker::NeighborhoodWalker(const GraphSnapshot& snap)
    : snap_(&snap), stamp_(snap.num_nodes(), 0) {}

std::span<const NodeId> NeighborhoodWalker::Walk(NodeId v, int radius) {
  if (++epoch_ == 0) {  // Wrapped: forget every stamp.
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  members_.clear();
  auto visit = [this](NodeId x) {
    if (stamp_[x] == epoch_) return;
    stamp_[x] = epoch_;
    members_.push_back(x);
  };
  visit(v);
  size_t level_begin = 0;
  for (int d = 0; d < radius && level_begin < members_.size(); ++d) {
    const size_t level_end = members_.size();
    for (size_t i = level_begin; i < level_end; ++i) {
      const NodeId x = members_[i];
      for (const GraphSnapshot::AdjEntry& a : snap_->out(x)) visit(a.node);
      for (const GraphSnapshot::AdjEntry& a : snap_->in(x)) visit(a.node);
    }
    level_begin = level_end;
  }
  return members_;
}

size_t NeighborhoodWalker::InducedEdges() const {
  size_t edges = 0;
  for (NodeId x : members_) {
    std::span<const GraphSnapshot::AdjEntry> run = snap_->out(x);
    if (!snap_->directed()) {
      // An undirected edge is listed at both endpoints and a self-loop
      // once, so count each at its lower endpoint: the run from x on.
      run = {std::partition_point(run.begin(), run.end(),
                                  [x](const GraphSnapshot::AdjEntry& a) {
                                    return a.node < x;
                                  }),
             run.end()};
    }
    for (const GraphSnapshot::AdjEntry& a : run) {
      if (stamp_[a.node] == epoch_) ++edges;
    }
  }
  return edges;
}

NeighborhoodSubgraph ExtractNeighborhood(NeighborhoodWalker* walker, NodeId v,
                                         int radius) {
  std::span<const NodeId> members = walker->Walk(v, radius);
  return {&walker->snapshot(), members, walker->InducedEdges()};
}

namespace {

/// The DFS over member positions: position 0 is the center, mapped to the
/// data center before the search starts.
struct SubIsoState {
  const NeighborhoodSubgraph& q;
  const NeighborhoodSubgraph& d;
  std::vector<uint32_t> assign;  // Query position -> data position.
  std::vector<char> used;        // Data position taken.
  ResourceGovernor* governor;
  uint64_t steps = 0;
  bool budget_hit = false;

  SymbolId QueryLabel(size_t i) const {
    return q.snap->node_label_sym(q.members[i]);
  }
  SymbolId DataLabel(size_t j) const {
    return d.snap->node_label_sym(d.members[j]);
  }

  /// Whether mapping query position i to data position j keeps every
  /// query edge between i and an earlier non-center position.
  bool EdgesOk(size_t i, size_t j) const {
    const NodeId qu = q.members[i];
    const NodeId dv = d.members[j];
    for (size_t w = 1; w < i; ++w) {
      const NodeId qw = q.members[w];
      const NodeId dw = d.members[assign[w]];
      if (q.snap->HasEdgeBetween(qu, qw) && !d.snap->HasEdgeBetween(dv, dw)) {
        return false;
      }
      if (q.snap->directed() && q.snap->HasEdgeBetween(qw, qu) &&
          !d.snap->HasEdgeBetween(dw, dv)) {
        return false;
      }
    }
    return true;
  }

  bool Dfs(size_t i) {
    if (i == q.members.size()) return true;
    ++steps;
    if (!GovCharge(governor, 1, GovernPoint::kNeighborhood)) {
      budget_hit = true;
      return true;  // Conservative; the trip is reported by the caller.
    }
    const SymbolId want = QueryLabel(i);
    for (size_t j = 1; j < d.members.size(); ++j) {
      if (used[j]) continue;
      if (want != kNoSymbol && want != DataLabel(j)) continue;
      if (!EdgesOk(i, j)) continue;
      assign[i] = static_cast<uint32_t>(j);
      used[j] = 1;
      if (Dfs(i + 1)) return true;
      used[j] = 0;
    }
    return false;
  }
};

}  // namespace

bool NeighborhoodSubIsomorphic(const NeighborhoodSubgraph& query,
                               const NeighborhoodSubgraph& data,
                               ResourceGovernor* governor,
                               NeighborhoodStats* stats) {
  if (stats != nullptr) ++stats->tests;
  if (query.members.size() > data.members.size() ||
      query.num_edges > data.num_edges) {
    return false;
  }
  SubIsoState state{query, data, {}, {}, governor};
  const SymbolId center = state.QueryLabel(0);
  if (center != kNoSymbol && center != state.DataLabel(0)) return false;
  state.assign.assign(query.members.size(), 0);
  state.used.assign(data.members.size(), 0);
  state.used[0] = 1;
  const bool found = state.Dfs(1);
  if (stats != nullptr) {
    stats->steps += state.steps;
    stats->budget_hits += state.budget_hit ? 1 : 0;
  }
  return found;
}

}  // namespace graphql::match
