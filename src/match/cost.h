#ifndef GRAPHQL_MATCH_COST_H_
#define GRAPHQL_MATCH_COST_H_

#include <vector>

#include "algebra/pattern.h"
#include "graph/graph.h"
#include "match/label_index.h"

namespace graphql::match {

/// Options for the cost model of Section 4.4.
struct OrderOptions {
  /// Reduction factor used when edge probabilities are unavailable (the
  /// paper's "approximate it by a constant").
  double constant_gamma = 0.5;
  /// Estimate per-edge reduction factors as P(e(u,v)) =
  /// freq(e) / (freq(u) * freq(v)) from the label statistics.
  bool use_edge_probs = true;
};

/// Greedy left-deep search-order selection (Section 4.4): at each join,
/// pick the remaining pattern node minimizing the estimated join cost
/// Size(left) x Size(right); ties are broken by the estimated result size
/// (which folds in the reduction factor, preferring selective, connected
/// extensions) and then by node id for determinism.
///
/// `candidates[u].size()` supplies the leaf cardinalities |Phi(u)|.
/// `index` may be null (constant reduction factor is then used).
std::vector<NodeId> GreedySearchOrder(
    const algebra::GraphPattern& pattern,
    const std::vector<std::vector<NodeId>>& candidates,
    const LabelIndex* index, const OrderOptions& options = {});

/// Total estimated cost of a given search order (Definition 4.13):
/// sum over joins of Size(left) x Size(right), with
/// Size(i) = Size(left) x Size(right) x gamma(i). Exposed for tests and
/// the search-order ablation benchmark.
double EstimateOrderCost(const algebra::GraphPattern& pattern,
                         const std::vector<size_t>& candidate_sizes,
                         const std::vector<NodeId>& order,
                         const LabelIndex* index,
                         const OrderOptions& options = {});

}  // namespace graphql::match

#endif  // GRAPHQL_MATCH_COST_H_
