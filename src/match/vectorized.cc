#include "match/vectorized.h"

namespace graphql::match {

SelectionPlan::SelectionPlan(const algebra::GraphPattern& pattern,
                             const GraphSnapshot& snap, bool label_lists)
    : pattern_(&pattern), snap_(&snap) {
  static const SymbolId kLabelAttr = SymbolTable::Global().Intern("label");
  const size_t k = pattern.graph().NumNodes();
  nodes_.resize(k);
  for (size_t u = 0; u < k; ++u) {
    const NodeId pu = static_cast<NodeId>(u);
    NodePlan& np = nodes_[u];
    // A non-empty string label is what LabelIndex keys its posting lists
    // by (Graph::Label); its requirement carries the interned symbol.
    const bool labelled = !pattern.graph().Label(pu).empty();
    const auto& reqs = pattern.NodeReqs(pu);
    np.reqs.reserve(reqs.size());
    for (const auto& r : reqs) {
      if (labelled && r.attr_sym == kLabelAttr) {
        np.base_label = r.val_sym;
        if (label_lists) continue;
      }
      np.reqs.push_back(Req{snap.NodeColumn(r.attr_sym), &r});
    }
    np.preds = BuildNodePredPlan(pattern, pu, snap, &preds_compiled_,
                                 &preds_fallback_);
  }
}

bool SelectionPlan::NodeCompatible(NodeId u, const Graph& data, NodeId v,
                                   algebra::PatternScratch* scratch) const {
  const SymbolId tag = pattern_->node_tag_sym(u);
  if (tag != kNoSymbol && tag != snap_->node_tag_sym(v)) return false;
  for (const Req& q : nodes_[u].reqs) {
    if (q.col == nullptr) return false;
    if (q.req->val_sym != kNoSymbol) {
      if (q.col->FindValSym(v) != q.req->val_sym) return false;
    } else {
      const Value* got = q.col->Find(v);
      if (got == nullptr || !(*got == q.req->value)) return false;
    }
  }
  return PredsOk(u, data, v, scratch);
}

bool SelectionPlan::PredsOk(NodeId u, const Graph& data, NodeId v,
                            algebra::PatternScratch* scratch) const {
  const NodePlan& np = nodes_[u];
  for (const auto& c : np.preds.compiled) {
    // kError rejects, exactly like the AST path's error fold.
    if (c.program.Eval(c.cols, v) != Tri::kTrue) return false;
  }
  if (np.preds.residual.empty()) return true;
  return pattern_->NodePredsOkSubset(u, data, v, np.preds.residual, scratch);
}

void ScanBaseList(const SelectionPlan& plan, NodeId u, const Graph& data,
                  const std::vector<NodeId>& base,
                  algebra::PatternScratch* scratch, std::vector<NodeId>* out) {
  for (NodeId v : base) {
    if (plan.NodeCompatible(u, data, v, scratch)) out->push_back(v);
  }
}

}  // namespace graphql::match
