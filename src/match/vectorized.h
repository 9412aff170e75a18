#ifndef GRAPHQL_MATCH_VECTORIZED_H_
#define GRAPHQL_MATCH_VECTORIZED_H_

#include <cstdint>
#include <vector>

#include "algebra/pattern.h"
#include "common/packed_bits.h"
#include "graph/snapshot.h"
#include "match/pred_bytecode.h"

namespace graphql::obs {
class MetricsRegistry;
}

namespace graphql::match {

/// Candidate-selection kernel for the retrieve stage.
///  - kBitmap:   column-at-a-time evaluation — tag and attribute-equality
///               requirements fill a PackedBits verdict row over all data
///               nodes, survivors evaluate pushed predicates.
///  - kBytecode: per-candidate probes against pre-bound columns with pushed
///               predicates run as compiled bytecode (AST fallback for
///               uncovered conjuncts).
/// Both produce the candidate list the AST feasible-mate test
/// (GraphPattern::NodeCompatible) produces, in base-list order.
enum class SelectionKernel : uint8_t { kBitmap = 0, kBytecode };

/// Stable lowercase name ("bitmap", "bytecode") for metrics, EXPLAIN
/// output, and bench provenance stamps.
const char* SelectionKernelName(SelectionKernel k);

/// Picks the kernel for one pattern node's scan by density. `base_size` is
/// the candidate base-list length, `num_nodes` the snapshot node count,
/// `dense_base` whether the base list is the full node range (no label
/// index). A bitmap fill costs one pass over the requirement columns
/// regardless of base size, so it only pays off when the base list covers
/// a large fraction of the graph.
SelectionKernel ResolveSelectionKernel(size_t base_size, size_t num_nodes,
                                       bool dense_base);

/// Per-(pattern, snapshot) compiled selection state shared by the bitmap
/// and bytecode kernels: bound requirement columns and predicate plans for
/// every pattern node. Built once per retrieve; read-only afterwards, so
/// parallel workers share one instance (each with its own PatternScratch
/// and PackedBits scratch).
class SelectionPlan {
 public:
  /// Binds columns and compiles pushed predicates. When `metrics` is
  /// non-null, bumps match.bytecode.pred_compiled / pred_fallback with the
  /// per-conjunct coverage tallies.
  SelectionPlan(const algebra::GraphPattern& pattern, const GraphSnapshot& snap,
                obs::MetricsRegistry* metrics);

  const algebra::GraphPattern& pattern() const { return *pattern_; }

  /// Bytecode-kernel feasible-mate test: verdict identical to
  /// pattern.NodeCompatible(u, data, v).
  bool NodeCompatible(NodeId u, const Graph& data, NodeId v,
                      algebra::PatternScratch* scratch) const;

  /// Bitmap-kernel structural pass: overwrites row 0 of `bits` (which must
  /// have at least 2 rows of snapshot-node width; row 1 is scratch) with
  /// the verdict of the tag and attribute-equality requirements of pattern
  /// node `u` over every data node. Pushed predicates are NOT included —
  /// callers run PredsOk on surviving bits.
  void FillStructuralBitmap(NodeId u, PackedBits* bits) const;

  /// Evaluates the pushed predicates of `u` for candidate `v`: compiled
  /// programs first, residual conjuncts via the AST interpreter. True when
  /// u carries no predicates.
  bool PredsOk(NodeId u, const Graph& data, NodeId v,
               algebra::PatternScratch* scratch) const;

  bool HasPreds(NodeId u) const {
    const NodePlan& np = nodes_[u];
    return !np.preds.compiled.empty() || !np.preds.residual.empty();
  }

 private:
  struct NodePlan {
    /// Parallel to pattern.NodeReqs(u); nullptr when the snapshot has no
    /// column for that attribute (requirement can never hold).
    std::vector<const GraphSnapshot::Column*> req_cols;
    NodePredPlan preds;
  };

  const algebra::GraphPattern* pattern_;
  const GraphSnapshot* snap_;
  std::vector<NodePlan> nodes_;
};

/// Scans one base list with a resolved kernel, appending the surviving
/// candidates to `out` in base-list order. For kBitmap, `bits`
/// must be a 2 x num_nodes scratch (filled here); unused for kBytecode.
void ScanBaseList(const SelectionPlan& plan, NodeId u, const Graph& data,
                  const std::vector<NodeId>& base, SelectionKernel resolved,
                  algebra::PatternScratch* scratch, PackedBits* bits,
                  std::vector<NodeId>* out);

}  // namespace graphql::match

#endif  // GRAPHQL_MATCH_VECTORIZED_H_
