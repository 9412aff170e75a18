#ifndef GRAPHQL_MATCH_NEIGHBORHOOD_H_
#define GRAPHQL_MATCH_NEIGHBORHOOD_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/governor.h"
#include "common/symbols.h"
#include "graph/snapshot.h"

namespace graphql::match {

/// A neighborhood subgraph (Definition 4.10): all nodes within `radius`
/// hops of a center node and all edges between them, with the center
/// distinguished. It is a view over a GraphSnapshot: the members' snapshot
/// ids, the center first and the rest in BFS order, and the number of
/// edges among them. Labels are the snapshot's interned node_label_sym
/// and edges are probed with GraphSnapshot::HasEdgeBetween, so a stored
/// neighborhood costs one id per member.
struct NeighborhoodSubgraph {
  const GraphSnapshot* snap = nullptr;
  std::span<const NodeId> members;
  /// Edges among the members: parallel edges and self-loops each count.
  size_t num_edges = 0;
};

/// Walks radius-r neighborhoods over one snapshot's CSR arrays: the one
/// walker behind LabelIndex's stored neighborhoods and profiles and the
/// pattern side of retrieval. Its scratch is sized once per snapshot, so
/// a walk costs the adjacency it scans.
class NeighborhoodWalker {
 public:
  explicit NeighborhoodWalker(const GraphSnapshot& snap);

  const GraphSnapshot& snapshot() const { return *snap_; }

  /// v's radius-r neighborhood: v, then every node within `radius` hops
  /// over out- and in-edges, each once, in BFS order (within a node, in
  /// CSR order: out-neighbors by id, then in-neighbors by id). The view is
  /// valid until the next walk.
  std::span<const NodeId> Walk(NodeId v, int radius);

  /// Edges among the last walk's members, each counted once: parallel
  /// edges and self-loops count.
  size_t InducedEdges() const;

 private:
  const GraphSnapshot* snap_;
  std::vector<uint32_t> stamp_;  // stamp_[x] == epoch_: x is a member.
  uint32_t epoch_ = 0;
  std::vector<NodeId> members_;
};

/// v's radius-r neighborhood over the walker's snapshot: a view into the
/// walker, valid until its next walk.
NeighborhoodSubgraph ExtractNeighborhood(NeighborhoodWalker* walker, NodeId v,
                                         int radius);

/// What a run of neighborhood sub-isomorphism tests did.
struct NeighborhoodStats {
  uint64_t tests = 0;        ///< Tests run.
  uint64_t steps = 0;        ///< DFS steps they took.
  uint64_t budget_hits = 0;  ///< Tests a refused charge cut short.

  void Add(const NeighborhoodStats& other) {
    tests += other.tests;
    steps += other.steps;
    budget_hits += other.budget_hits;
  }
};

/// The neighborhood-subgraph pruning test (Section 4.2): true if the
/// query neighborhood is sub-isomorphic to the data neighborhood with the
/// centers mapped to each other. Nodes match when the query node has no
/// label or the labels are equal (unlabeled query nodes are wildcards).
/// The DFS maps the query's non-center members in member order onto the
/// data's non-center members and checks the query edges among them. Edges
/// at the center are not checked one by one; only the edge-count check
/// covers them.
///
/// The test is itself NP-hard, so each DFS step charges `governor` at
/// GovernPoint::kNeighborhood; when a charge is refused the test
/// conservatively returns true (no pruning) and the caller handles the
/// trip. The size and center-label checks run before any step is charged.
///
/// When `stats` is given, the test counts itself, its steps and a budget
/// hit there.
bool NeighborhoodSubIsomorphic(const NeighborhoodSubgraph& query,
                               const NeighborhoodSubgraph& data,
                               ResourceGovernor* governor = nullptr,
                               NeighborhoodStats* stats = nullptr);

}  // namespace graphql::match

#endif  // GRAPHQL_MATCH_NEIGHBORHOOD_H_
