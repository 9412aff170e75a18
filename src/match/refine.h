#ifndef GRAPHQL_MATCH_REFINE_H_
#define GRAPHQL_MATCH_REFINE_H_

#include <cstdint>
#include <vector>

#include "algebra/pattern.h"
#include "common/governor.h"
#include "graph/graph.h"
#include "graph/snapshot.h"

namespace graphql::match {

struct RefineStats {
  uint64_t bipartite_checks = 0;  ///< Semi-perfect matching tests run.
  uint64_t removed = 0;           ///< Candidates pruned from the space.
  uint64_t dirty_skips = 0;       ///< Marked pairs already removed when
                                  ///< their turn came (saved re-checks).
  int levels_run = 0;             ///< Levels before the fixpoint/limit.
  uint64_t pairs_charged = 0;     ///< Governor steps charged (for refunds).
  bool aborted = false;           ///< Governor tripped mid-refinement; the
                                  ///< candidate sets were left PARTIALLY
                                  ///< refined (still sound) — the pipeline
                                  ///< restores its pre-refine snapshot when
                                  ///< it wants the exact unrefined space.

  /// Adds a later refinement's counts; `levels_run` becomes the later
  /// one's.
  void Add(const RefineStats& later);
};

/// Joint (global) reduction of the search space by pseudo subgraph
/// isomorphism (Algorithm 4.2, Section 4.3), over the data graph's
/// compiled snapshot.
///
/// For each pattern node u and candidate v, a bipartite graph B(u,v) is
/// built between N(u) and N(v) with an edge (u', v') iff v' is currently in
/// candidates[u']; if B(u,v) has no semi-perfect matching (some neighbor of
/// u cannot be matched), v is removed from candidates[u]. Iterating to
/// `level` approximates level-l pseudo subgraph isomorphism. Candidate and
/// dirty-mark sets are packed k x n bit matrices; N(v) is the snapshot's
/// unique-neighbor span, so no pair allocates.
///
/// `use_marking` enables the paper's first implementation improvement:
/// only pairs whose neighborhood changed are re-checked (dirty marking),
/// drained in ascending (u, v) order. Disabling it re-checks every
/// surviving pair at every level in candidate-list order (exposed for the
/// ablation benchmark); the final space is identical.
///
/// The pass runs on the calling thread and removes a failed pair at once,
/// so later pairs of the same level see the removal (Gauss-Seidel, the
/// paper's algorithm).
///
/// The refinement is sound: it never removes a candidate that participates
/// in a real match (verified by property tests).
///
/// When `governor` is given, every (u, v) pair processed charges one step
/// to GovernPoint::kRefine and the bit matrices are accounted against the
/// memory budget. A trip aborts the pass early with `stats->aborted` set;
/// removals already applied remain (they are sound), and
/// `stats->pairs_charged` lets the caller refund the spent steps when it
/// discards the partial refinement.
void RefineSearchSpace(const algebra::GraphPattern& pattern,
                       const GraphSnapshot& snap, int level,
                       std::vector<std::vector<NodeId>>* candidates,
                       RefineStats* stats = nullptr, bool use_marking = true,
                       ResourceGovernor* governor = nullptr);

}  // namespace graphql::match

#endif  // GRAPHQL_MATCH_REFINE_H_
