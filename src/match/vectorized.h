#ifndef GRAPHQL_MATCH_VECTORIZED_H_
#define GRAPHQL_MATCH_VECTORIZED_H_

#include <cstdint>
#include <vector>

#include "algebra/pattern.h"
#include "graph/snapshot.h"
#include "match/pred_bytecode.h"

namespace graphql::match {

/// Per-(pattern, snapshot) compiled selection state: bound requirement
/// columns and predicate plans for every pattern node. Its kernel,
/// ScanBaseList, keeps exactly the candidates the AST feasible-mate test
/// (GraphPattern::NodeCompatible) keeps: per-candidate probes of a base
/// list (a posting list, a B+-tree range or every node) against the
/// pre-bound columns, pushed predicates run as compiled bytecode (AST
/// fallback for uncovered conjuncts). Built once per retrieve; read-only
/// afterwards, so parallel workers share one instance (each with its own
/// PatternScratch).
class SelectionPlan {
 public:
  /// Binds columns and compiles pushed predicates.
  ///
  /// With `label_lists`, the caller scans every labelled pattern node's
  /// base_label posting list of a LabelIndex built from `snap`. That list
  /// holds exactly the data nodes carrying the label, so the plan omits
  /// the node's `label` requirement. Without it the plan checks every
  /// requirement, for any base list.
  SelectionPlan(const algebra::GraphPattern& pattern, const GraphSnapshot& snap,
                bool label_lists = false);

  const algebra::GraphPattern& pattern() const { return *pattern_; }

  /// Pushed conjuncts compiled to bytecode, and those left to the AST
  /// interpreter, over every pattern node.
  uint64_t preds_compiled() const { return preds_compiled_; }
  uint64_t preds_fallback() const { return preds_fallback_; }

  /// The symbol the pattern interned for u's label (the key of its
  /// posting list); kNoSymbol when u is unlabelled.
  SymbolId base_label(NodeId u) const { return nodes_[u].base_label; }

  /// True when the plan checks nothing for u (no tag, no requirement left,
  /// no predicate): every base-list candidate is feasible.
  bool AcceptsAll(NodeId u) const {
    return pattern_->node_tag_sym(u) == kNoSymbol && nodes_[u].reqs.empty() &&
           !HasPreds(u);
  }

  /// Per-candidate feasible-mate test over a base-list candidate: verdict
  /// identical to pattern.NodeCompatible(u, data, v).
  bool NodeCompatible(NodeId u, const Graph& data, NodeId v,
                      algebra::PatternScratch* scratch) const;

 private:
  /// Evaluates the pushed predicates of `u` for candidate `v`: compiled
  /// programs first, residual conjuncts via the AST interpreter. True when
  /// u carries no predicates.
  bool PredsOk(NodeId u, const Graph& data, NodeId v,
               algebra::PatternScratch* scratch) const;

  bool HasPreds(NodeId u) const {
    const NodePlan& np = nodes_[u];
    return !np.preds.compiled.empty() || !np.preds.residual.empty();
  }

  /// One attribute-equality requirement bound to its column; `col` is
  /// nullptr when the snapshot has no column for the attribute (the
  /// requirement can never hold).
  struct Req {
    const GraphSnapshot::Column* col;
    const algebra::GraphPattern::SymReq* req;
  };
  struct NodePlan {
    SymbolId base_label = kNoSymbol;
    std::vector<Req> reqs;  // NodeReqs(u), minus the label for label_lists.
    NodePredPlan preds;
  };

  const algebra::GraphPattern* pattern_;
  const GraphSnapshot* snap_;
  std::vector<NodePlan> nodes_;
  uint64_t preds_compiled_ = 0;
  uint64_t preds_fallback_ = 0;
};

/// Scans one base list with the per-candidate test, appending the
/// surviving candidates to `out` in base-list order.
void ScanBaseList(const SelectionPlan& plan, NodeId u, const Graph& data,
                  const std::vector<NodeId>& base,
                  algebra::PatternScratch* scratch, std::vector<NodeId>* out);

}  // namespace graphql::match

#endif  // GRAPHQL_MATCH_VECTORIZED_H_
