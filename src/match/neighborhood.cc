#include "match/neighborhood.h"

#include <algorithm>
#include <string>

namespace graphql::match {

NeighborhoodSubgraph ExtractNeighborhood(const Graph& g, NodeId v, int radius,
                                         std::vector<NodeId>* scratch_local) {
  NeighborhoodSubgraph out;
  std::vector<NodeId>& local = *scratch_local;
  std::vector<NodeId> members = {v};
  local[v] = 0;
  size_t frontier_begin = 0;
  for (int d = 1; d <= radius; ++d) {
    size_t frontier_end = members.size();
    for (size_t i = frontier_begin; i < frontier_end; ++i) {
      NodeId x = members[i];
      for (const Graph::Adj& a : g.neighbors(x)) {
        if (local[a.node] != kInvalidNode) continue;
        local[a.node] = static_cast<NodeId>(members.size());
        members.push_back(a.node);
      }
      if (g.directed()) {
        for (const Graph::Adj& a : g.in_neighbors(x)) {
          if (local[a.node] != kInvalidNode) continue;
          local[a.node] = static_cast<NodeId>(members.size());
          members.push_back(a.node);
        }
      }
    }
    frontier_begin = frontier_end;
  }
  // local[x] currently stores the position in `members`; build the subgraph
  // with only the label attribute retained.
  out.sub = Graph("", g.directed());
  out.sub.Reserve(members.size(), members.size() * 2);
  out.label_syms.reserve(members.size());
  for (NodeId x : members) {
    std::string_view label = g.Label(x);
    AttrTuple attrs;
    if (!label.empty()) attrs.Set("label", Value(std::string(label)));
    out.label_syms.push_back(
        label.empty() ? kNoSymbol : SymbolTable::Global().Intern(label));
    out.sub.AddNode("", std::move(attrs));
  }
  out.center = 0;
  // Edges among members (each once: iterate each member's adjacency and
  // keep pairs where this endpoint is the smaller local id, or always for
  // directed graphs using out-adjacency only).
  for (size_t i = 0; i < members.size(); ++i) {
    NodeId x = members[i];
    for (const Graph::Adj& a : g.neighbors(x)) {
      NodeId j = local[a.node];
      if (j == kInvalidNode) continue;
      const Graph::Edge& e = g.edge(a.edge);
      if (g.directed()) {
        // neighbors() lists outgoing edges: emit every one.
        out.sub.AddEdge(static_cast<NodeId>(i), j);
      } else {
        // Undirected adjacency lists each edge at both endpoints; emit it
        // only from the endpoint that is the edge's stored source (or for
        // self-loops, once).
        if (e.src == x) out.sub.AddEdge(static_cast<NodeId>(i), j);
      }
    }
  }
  for (NodeId x : members) local[x] = kInvalidNode;
  return out;
}

NeighborhoodSubgraph ExtractNeighborhood(const Graph& g, NodeId v,
                                         int radius) {
  std::vector<NodeId> local(g.NumNodes(), kInvalidNode);
  return ExtractNeighborhood(g, v, radius, &local);
}

namespace {

struct SubIsoState {
  const Graph* q;
  const Graph* d;
  const std::vector<SymbolId>* q_syms;  // Pre-interned labels; never strings
  const std::vector<SymbolId>* d_syms;  // in the match loop.
  std::vector<NodeId> assign;   // query node -> data node
  std::vector<char> used;       // data node used
  uint64_t steps = 0;
  bool budget_hit = false;
  ResourceGovernor* governor = nullptr;
  TaskLedger* ledger = nullptr;  // Counts replace `governor` charges when set.

  bool NodeOk(NodeId qu, NodeId dv) const {
    SymbolId ql = (*q_syms)[qu];
    if (ql == kNoSymbol) return true;  // Unlabeled query node: wildcard.
    return ql == (*d_syms)[dv];
  }

  bool Dfs(size_t i, const std::vector<NodeId>& order) {
    if (i == order.size()) return true;
    ++steps;
    bool charged = ledger != nullptr
                       ? ledger->Charge(1)
                       : GovCharge(governor, 1, GovernPoint::kNeighborhood);
    if (!charged) {
      budget_hit = true;
      return true;  // Conservative; the trip is reported by the caller.
    }
    NodeId qu = order[i];
    for (size_t dv = 0; dv < d->NumNodes(); ++dv) {
      NodeId v = static_cast<NodeId>(dv);
      if (used[dv]) continue;
      if (!NodeOk(qu, v)) continue;
      bool edges_ok = true;
      for (size_t j = 0; j < i; ++j) {
        NodeId qw = order[j];
        if (q->HasEdgeBetween(qu, qw) &&
            !d->HasEdgeBetween(v, assign[qw])) {
          edges_ok = false;
          break;
        }
        if (q->directed() && q->HasEdgeBetween(qw, qu) &&
            !d->HasEdgeBetween(assign[qw], v)) {
          edges_ok = false;
          break;
        }
      }
      if (!edges_ok) continue;
      assign[qu] = v;
      used[dv] = 1;
      if (Dfs(i + 1, order)) return true;
      used[dv] = 0;
      assign[qu] = kInvalidNode;
    }
    return false;
  }
};

}  // namespace

bool NeighborhoodSubIsomorphic(const NeighborhoodSubgraph& query,
                               const NeighborhoodSubgraph& data,
                               ResourceGovernor* governor, TaskLedger* ledger,
                               NeighborhoodStats* stats) {
  if (stats != nullptr) ++stats->tests;
  const Graph& q = query.sub;
  const Graph& d = data.sub;
  if (q.NumNodes() > d.NumNodes() || q.NumEdges() > d.NumEdges()) {
    return false;
  }
  SubIsoState state;
  state.q = &q;
  state.d = &d;
  state.q_syms = &query.label_syms;
  state.d_syms = &data.label_syms;
  state.assign.assign(q.NumNodes(), kInvalidNode);
  state.used.assign(d.NumNodes(), 0);
  state.governor = governor;
  state.ledger = ledger;

  if (!state.NodeOk(query.center, data.center)) return false;
  state.assign[query.center] = data.center;
  state.used[data.center] = 1;

  // Order remaining query nodes by BFS from the center so each new node
  // has a mapped neighbor (maximizes early pruning).
  std::vector<NodeId> order;
  std::vector<char> seen(q.NumNodes(), 0);
  std::vector<NodeId> bfs = {query.center};
  seen[query.center] = 1;
  for (size_t i = 0; i < bfs.size(); ++i) {
    for (const Graph::Adj& a : q.neighbors(bfs[i])) {
      if (!seen[a.node]) {
        seen[a.node] = 1;
        bfs.push_back(a.node);
        order.push_back(a.node);
      }
    }
  }
  for (size_t v = 0; v < q.NumNodes(); ++v) {
    if (!seen[v]) order.push_back(static_cast<NodeId>(v));
  }
  bool found = state.Dfs(0, order);
  if (stats != nullptr) {
    stats->steps += state.steps;
    stats->budget_hits += state.budget_hit ? 1 : 0;
  }
  return found;
}

}  // namespace graphql::match
