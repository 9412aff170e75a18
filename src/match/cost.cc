#include "match/cost.h"

#include <string_view>

namespace graphql::match {

namespace {

/// Interned label of each pattern node (kNoSymbol for wildcards).
std::vector<SymbolId> PatternLabels(const Graph& p, const LabelIndex* index) {
  std::vector<SymbolId> labels(p.NumNodes(), kNoSymbol);
  if (index == nullptr) return labels;
  for (size_t u = 0; u < p.NumNodes(); ++u) {
    std::string_view l = p.Label(static_cast<NodeId>(u));
    if (!l.empty()) labels[u] = SymbolTable::Global().Lookup(l);
  }
  return labels;
}

/// Reduction factor gamma for joining node u to the already-joined set:
/// the product of edge probabilities over pattern edges between u and
/// joined nodes (Definition 4.11).
double JoinGamma(const Graph& p, NodeId u, const std::vector<char>& joined,
                 const std::vector<SymbolId>& labels, const LabelIndex* index,
                 const OrderOptions& options) {
  double gamma = 1.0;
  auto fold = [&](NodeId w) {
    if (!joined[w]) return;
    double p_edge = options.constant_gamma;
    if (options.use_edge_probs && index != nullptr &&
        labels[u] != kNoSymbol && labels[w] != kNoSymbol) {
      p_edge = index->EdgeProbability(labels[u], labels[w],
                                      options.constant_gamma);
    }
    gamma *= p_edge;
  };
  for (const Graph::Adj& a : p.neighbors(u)) fold(a.node);
  if (p.directed()) {
    for (const Graph::Adj& a : p.in_neighbors(u)) fold(a.node);
  }
  return gamma;
}

}  // namespace

std::vector<NodeId> GreedySearchOrder(
    const algebra::GraphPattern& pattern,
    const std::vector<std::vector<NodeId>>& candidates,
    const LabelIndex* index, const OrderOptions& options) {
  const Graph& p = pattern.graph();
  size_t k = p.NumNodes();
  std::vector<NodeId> order;
  order.reserve(k);
  std::vector<char> joined(k, 0);
  std::vector<SymbolId> labels = PatternLabels(p, index);

  double size = 1.0;  // Estimated cardinality of the joined prefix.
  for (size_t step = 0; step < k; ++step) {
    NodeId best = kInvalidNode;
    double best_cost = 0;
    double best_result = 0;
    for (size_t u = 0; u < k; ++u) {
      if (joined[u]) continue;
      double phi = static_cast<double>(candidates[u].size());
      double cost = size * phi;
      double gamma = JoinGamma(p, static_cast<NodeId>(u), joined, labels,
                               index, options);
      double result = cost * gamma;
      if (best == kInvalidNode || cost < best_cost ||
          (cost == best_cost && result < best_result)) {
        best = static_cast<NodeId>(u);
        best_cost = cost;
        best_result = result;
      }
    }
    joined[best] = 1;
    order.push_back(best);
    size = best_result;  // Size(i) = Size(l) x Size(r) x gamma(i).
  }
  return order;
}

double EstimateOrderCost(const algebra::GraphPattern& pattern,
                         const std::vector<size_t>& candidate_sizes,
                         const std::vector<NodeId>& order,
                         const LabelIndex* index,
                         const OrderOptions& options) {
  const Graph& p = pattern.graph();
  std::vector<char> joined(p.NumNodes(), 0);
  std::vector<SymbolId> labels = PatternLabels(p, index);
  double size = 1.0;
  double total = 0.0;
  bool first = true;
  for (NodeId u : order) {
    double phi = static_cast<double>(candidate_sizes[u]);
    if (!first) total += size * phi;  // Cost of this join (Def. 4.12).
    double gamma = JoinGamma(p, u, joined, labels, index, options);
    size = size * phi * gamma;
    joined[u] = 1;
    first = false;
  }
  return total;
}

}  // namespace graphql::match
