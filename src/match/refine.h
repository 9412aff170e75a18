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

/// The B(u, v) test of Algorithm 4.2 over buffers that live from one test
/// to the next. Test(rows, cols, edge) is true iff every row r < rows can
/// be matched to a distinct column c < cols with edge(r, c): a
/// semi-perfect matching. The verdict is exact; the work follows where
/// refinement's tests end:
///   - a greedy pass gives each row the first free column it has, so a
///     row is scanned only until its mate turns up;
///   - the test fails at the first row with no column at all;
///   - only the rows greedy leaves unmatched build a flat adjacency and
///     search augmenting paths (Kuhn's DFS, visited columns stamped).
/// Once the buffers have grown to the largest test, a test allocates
/// nothing.
class SemiPerfectMatcher {
 public:
  template <typename EdgeFn>
  bool Test(size_t rows, size_t cols, EdgeFn&& edge) {
    if (rows > cols) return false;
    if (taken_.size() < cols) {
      taken_.resize(cols, 0);
      mate_.resize(cols);
      seen_.resize(cols, 0);
    }
    ++round_;  // Every column is free.
    unmatched_.clear();
    for (size_t r = 0; r < rows; ++r) {
      bool any = false;
      size_t c = 0;
      for (; c < cols; ++c) {
        if (!edge(r, c)) continue;
        any = true;
        if (taken_[c] != round_) break;
      }
      if (c < cols) {
        Take(c, static_cast<uint32_t>(r));
      } else if (!any) {
        return false;
      } else {
        unmatched_.push_back(static_cast<uint32_t>(r));
      }
    }
    if (unmatched_.empty()) return true;
    adj_start_.clear();
    adj_.clear();
    for (size_t r = 0; r < rows; ++r) {
      adj_start_.push_back(static_cast<uint32_t>(adj_.size()));
      for (size_t c = 0; c < cols; ++c) {
        if (edge(r, c)) adj_.push_back(static_cast<uint32_t>(c));
      }
    }
    adj_start_.push_back(static_cast<uint32_t>(adj_.size()));
    for (uint32_t r : unmatched_) {
      ++visit_;
      // Kuhn: a row with no augmenting path now has none after later
      // augmentations either, so no matching covers every row.
      if (!Augment(r)) return false;
    }
    return true;
  }

 private:
  void Take(size_t col, uint32_t row) {
    taken_[col] = round_;
    mate_[col] = row;
  }
  /// Kuhn's DFS from `row` over the flat adjacency.
  bool Augment(uint32_t row);

  // 64-bit stamps never wrap, so no buffer is ever cleared.
  uint64_t round_ = 0;            ///< Stamp of the current test.
  uint64_t visit_ = 0;            ///< Stamp of the current path search.
  std::vector<uint64_t> taken_;   ///< Column c has a mate iff == round_.
  std::vector<uint32_t> mate_;    ///< The row matched to column c.
  std::vector<uint64_t> seen_;    ///< Column c visited iff == visit_.
  std::vector<uint32_t> unmatched_;  ///< Rows greedy left without a mate.
  std::vector<uint32_t> adj_start_;  ///< Row r's columns are adj_[
  std::vector<uint32_t> adj_;        ///< adj_start_[r], adj_start_[r + 1]).
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
/// unique-neighbor span, and one SemiPerfectMatcher runs every B(u,v)
/// test of the call over those bits, so no pair allocates.
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
