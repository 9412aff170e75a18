#include "match/vectorized.h"

#include "obs/metrics.h"

namespace graphql::match {

const char* SelectionKernelName(SelectionKernel k) {
  return k == SelectionKernel::kBitmap ? "bitmap" : "bytecode";
}

SelectionKernel ResolveSelectionKernel(size_t base_size, size_t num_nodes,
                                       bool dense_base) {
  // A bitmap fill scans every requirement column in full no matter how
  // selective the base list is; a bytecode probe is O(log column) per
  // candidate. Break even when the base list covers a decent fraction of
  // the graph (full scans always qualify).
  if (dense_base || base_size * 4 >= num_nodes) return SelectionKernel::kBitmap;
  return SelectionKernel::kBytecode;
}

SelectionPlan::SelectionPlan(const algebra::GraphPattern& pattern,
                             const GraphSnapshot& snap,
                             obs::MetricsRegistry* metrics)
    : pattern_(&pattern), snap_(&snap) {
  const size_t k = pattern.graph().NumNodes();
  nodes_.resize(k);
  uint64_t compiled = 0;
  uint64_t fallback = 0;
  for (size_t u = 0; u < k; ++u) {
    NodePlan& np = nodes_[u];
    const auto& reqs = pattern.NodeReqs(static_cast<NodeId>(u));
    np.req_cols.reserve(reqs.size());
    for (const auto& r : reqs) {
      np.req_cols.push_back(snap.NodeColumn(r.attr_sym));
    }
    np.preds = BuildNodePredPlan(pattern, static_cast<NodeId>(u), snap,
                                 &compiled, &fallback);
  }
  if (metrics != nullptr) {
    if (compiled != 0) {
      metrics->GetCounter("match.bytecode.pred_compiled")->Increment(compiled);
    }
    if (fallback != 0) {
      metrics->GetCounter("match.bytecode.pred_fallback")->Increment(fallback);
    }
  }
}

bool SelectionPlan::NodeCompatible(NodeId u, const Graph& data, NodeId v,
                                   algebra::PatternScratch* scratch) const {
  const SymbolId tag = pattern_->node_tag_sym(u);
  if (tag != kNoSymbol && tag != snap_->node_tag_sym(v)) return false;
  const NodePlan& np = nodes_[u];
  const auto& reqs = pattern_->NodeReqs(u);
  for (size_t i = 0; i < reqs.size(); ++i) {
    const GraphSnapshot::Column* col = np.req_cols[i];
    if (col == nullptr) return false;
    if (reqs[i].val_sym != kNoSymbol) {
      if (col->FindValSym(v) != reqs[i].val_sym) return false;
    } else {
      const Value* got = col->Find(v);
      if (got == nullptr || !(*got == reqs[i].value)) return false;
    }
  }
  return PredsOk(u, data, v, scratch);
}

void SelectionPlan::FillStructuralBitmap(NodeId u, PackedBits* bits) const {
  const size_t n = snap_->num_nodes();
  const SymbolId tag = pattern_->node_tag_sym(u);
  if (tag != kNoSymbol) {
    bits->ClearRow(0);
    for (size_t v = 0; v < n; ++v) {
      if (snap_->node_tag_sym(static_cast<NodeId>(v)) == tag) {
        bits->Set(0, v);
      }
    }
  } else {
    bits->SetRow(0);
  }
  const NodePlan& np = nodes_[u];
  const auto& reqs = pattern_->NodeReqs(u);
  for (size_t i = 0; i < reqs.size(); ++i) {
    const GraphSnapshot::Column* col = np.req_cols[i];
    if (col == nullptr) {
      // No such attribute anywhere: the requirement rejects every node.
      bits->ClearRow(0);
      return;
    }
    bits->ClearRow(1);
    const auto& r = reqs[i];
    if (r.val_sym != kNoSymbol) {
      // String equality: interned-symbol compare. val_syms is kNoSymbol
      // for non-string stored values, which correctly never matches.
      for (size_t j = 0; j < col->ids.size(); ++j) {
        if (col->val_syms[j] == r.val_sym) {
          bits->Set(1, static_cast<size_t>(col->ids[j]));
        }
      }
    } else {
      for (size_t j = 0; j < col->ids.size(); ++j) {
        if (col->values[j] == r.value) {
          bits->Set(1, static_cast<size_t>(col->ids[j]));
        }
      }
    }
    bits->AndRow(0, *bits, 1);
    if (bits->PopCountRow(0) == 0) return;
  }
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
                  const std::vector<NodeId>& base, SelectionKernel resolved,
                  algebra::PatternScratch* scratch, PackedBits* bits,
                  std::vector<NodeId>* out) {
  if (resolved == SelectionKernel::kBitmap) {
    plan.FillStructuralBitmap(u, bits);
    const bool preds = plan.HasPreds(u);
    for (NodeId v : base) {
      if (!bits->Test(0, static_cast<size_t>(v))) continue;
      if (preds && !plan.PredsOk(u, data, v, scratch)) continue;
      out->push_back(v);
    }
    return;
  }
  for (NodeId v : base) {
    if (plan.NodeCompatible(u, data, v, scratch)) out->push_back(v);
  }
}

}  // namespace graphql::match
