#ifndef GRAPHQL_MATCH_NEIGHBORHOOD_H_
#define GRAPHQL_MATCH_NEIGHBORHOOD_H_

#include <cstdint>
#include <vector>

#include "common/governor.h"
#include "common/symbols.h"
#include "graph/graph.h"

namespace graphql::match {

/// A neighborhood subgraph (Definition 4.10): all nodes within `radius`
/// hops of a center node and all edges between them, with the center
/// distinguished. Only the "label" attribute is retained — that is what
/// the pruning test consults — keeping stored neighborhoods small.
/// Labels are additionally pre-interned through SymbolTable::Global() so
/// the sub-isomorphism inner loop compares symbol ids, never strings.
struct NeighborhoodSubgraph {
  Graph sub;
  NodeId center = kInvalidNode;  ///< Center's id within `sub`.
  /// Interned label per sub node (kNoSymbol when unlabeled), parallel to
  /// `sub`'s node ids.
  std::vector<SymbolId> label_syms;
};

/// Extracts the radius-r neighborhood subgraph of v. `scratch_local` must
/// have size g.NumNodes(), filled with kInvalidNode; restored on return.
NeighborhoodSubgraph ExtractNeighborhood(const Graph& g, NodeId v, int radius,
                                         std::vector<NodeId>* scratch_local);

/// Convenience overload allocating its own scratch.
NeighborhoodSubgraph ExtractNeighborhood(const Graph& g, NodeId v,
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
///
/// The test is itself NP-hard, so each DFS step charges `governor` at
/// GovernPoint::kNeighborhood; when a charge is refused the test
/// conservatively returns true (no pruning) and the caller handles the
/// trip. The size and center-label checks run before any step is charged.
/// When `ledger` is given (parallel retrieve tasks), steps are counted
/// there instead and `governor` is not touched.
///
/// When `stats` is given, the test counts itself, its steps and a budget
/// hit there.
bool NeighborhoodSubIsomorphic(const NeighborhoodSubgraph& query,
                               const NeighborhoodSubgraph& data,
                               ResourceGovernor* governor = nullptr,
                               TaskLedger* ledger = nullptr,
                               NeighborhoodStats* stats = nullptr);

}  // namespace graphql::match

#endif  // GRAPHQL_MATCH_NEIGHBORHOOD_H_
