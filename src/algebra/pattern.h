#ifndef GRAPHQL_ALGEBRA_PATTERN_H_
#define GRAPHQL_ALGEBRA_PATTERN_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "algebra/expr.h"
#include "common/result.h"
#include "common/symbols.h"
#include "graph/graph.h"
#include "motif/builder.h"

namespace graphql {
class GraphSnapshot;
}

namespace graphql::algebra {

/// A graph pattern P = (M, F): a graph motif plus a predicate on its
/// attributes (Definition 4.1). This class owns the compiled form used by
/// the matcher:
///  - the concrete motif structure (a Graph whose node/edge attributes act
///    as equality constraints, e.g. `node v <label="A">` or a tuple tag),
///  - per-node and per-edge predicate lists (inline `where` clauses plus
///    conjuncts of the graph-wide predicate that reference exactly one node
///    or one edge — the paper's predicate pushdown, Section 4.1),
///  - the residual graph-wide predicate (e.g. `u1.label == u2.label`),
///    each conjunct with the pattern nodes it reads, so the search can
///    evaluate it as soon as it has bound them.
///
/// Thread-compatibility: the NodeCompatible/EdgeCompatible overloads
/// without a PatternScratch use an internal scratch mapping, so they must
/// not be called concurrently on one pattern. Concurrent callers (the
/// parallel pipeline stages) pass their own per-worker PatternScratch;
/// everything else on a compiled pattern is read-only.
class PatternScratch;

class GraphPattern {
 public:
  /// Compiles a declaration into a single pattern. Fails if the motif uses
  /// disjunction or repetition (use CreateAll for those).
  static Result<GraphPattern> Create(
      const lang::GraphDecl& decl,
      const motif::MotifRegistry* registry = nullptr,
      motif::BuildOptions options = {});

  /// Compiles a (possibly recursive / disjunctive) declaration into the
  /// pattern alternatives it derives; a graph matches the pattern if it
  /// matches any alternative (Definition 4.2, recursive patterns).
  static Result<std::vector<GraphPattern>> CreateAll(
      const lang::GraphDecl& decl,
      const motif::MotifRegistry* registry = nullptr,
      motif::BuildOptions options = {});

  /// Parses source text as one `graph ...` declaration and compiles it.
  static Result<GraphPattern> Parse(
      std::string_view source, const motif::MotifRegistry* registry = nullptr,
      motif::BuildOptions options = {});

  /// Builds a pattern directly from a concrete graph: every node/edge
  /// attribute becomes an equality constraint. Programmatic entry point
  /// used by the workload generators.
  static GraphPattern FromGraph(Graph motif);

  const std::string& name() const { return name_; }
  const Graph& graph() const { return built_.graph; }
  const std::unordered_map<std::string, NodeId>& node_names() const {
    return built_.node_names;
  }
  const std::unordered_map<std::string, EdgeId>& edge_names() const {
    return built_.edge_names;
  }

  /// True if data node `v` can host pattern node `u`: tuple tag matches,
  /// every pattern attribute equals the data attribute, and every pushed
  /// node predicate holds. This is the feasible-mate test F_u(v).
  bool NodeCompatible(NodeId u, const Graph& data, NodeId v) const;

  /// True if data edge `de` can host pattern edge `pe` (tag, attribute
  /// equality, pushed edge predicates F_e).
  bool EdgeCompatible(EdgeId pe, const Graph& data, EdgeId de) const;

  /// Snapshot fast path: identical verdict to the Graph overload, but tag
  /// and attribute-equality checks compare pre-interned symbol ids against
  /// the snapshot's columns — no std::string is touched unless the edge
  /// carries pushed predicates (which still evaluate against `data`
  /// through the expression engine). `data` must be the graph `snap` was
  /// compiled from. The overload taking a PatternScratch evaluates pushed
  /// predicates through the caller's scratch instead of the shared
  /// internal one; each concurrent worker owns one (resized to this
  /// pattern on first use). Nodes take the same fast path through
  /// match::SelectionPlan, which reads NodeReqs below.
  bool EdgeCompatible(EdgeId pe, const GraphSnapshot& snap, const Graph& data,
                      EdgeId de) const;
  bool EdgeCompatible(EdgeId pe, const GraphSnapshot& snap, const Graph& data,
                      EdgeId de, PatternScratch* scratch) const;

  /// Pre-interned tuple tag of a pattern node/edge (kNoSymbol = untagged).
  SymbolId node_tag_sym(NodeId u) const { return node_tag_syms_[u]; }
  SymbolId edge_tag_sym(EdgeId e) const { return edge_tag_syms_[e]; }

  /// One attribute-equality constraint in interned form: the data entity
  /// must carry attribute `attr_sym` with a value equal to `value`
  /// (`val_sym` short-circuits the comparison for string constants).
  struct SymReq {
    SymbolId attr_sym;
    Value value;
    SymbolId val_sym;  // kNoSymbol when `value` is not a string.
  };

  /// Interned attribute-equality constraints of node `u` — the tuple
  /// probes of NodeCompatible, exposed so the selection plan can evaluate
  /// them against snapshot columns.
  const std::vector<SymReq>& NodeReqs(NodeId u) const {
    return node_reqs_[u];
  }

  /// Evaluates a subset of the predicates pushed to node `u` (indices into
  /// NodePreds(u)), with bindings and verdict identical to the full
  /// NodePredsOk pass. The selection plan routes only the conjuncts the
  /// bytecode compiler did not cover through this AST-interpreter path.
  bool NodePredsOkSubset(NodeId u, const Graph& data, NodeId v,
                         const std::vector<uint32_t>& indices,
                         PatternScratch* scratch) const;

  /// True if some conjunct could not be pushed down to a node or edge.
  bool has_global_pred() const { return !global_preds_.empty(); }

  /// Evaluates the residual graph-wide predicate under a complete mapping.
  /// `edge_mapping` may be empty when the pattern has no edge-attribute
  /// references in its residual predicate.
  Result<bool> EvalGlobalPred(const Graph& data,
                              const std::vector<NodeId>& node_mapping,
                              const std::vector<EdgeId>& edge_mapping) const;

  /// A residual conjunct and what it reads: the pattern nodes it names,
  /// ascending, or `whole` when it also names an edge, a graph attribute
  /// or anything outside the pattern, so that only a complete embedding
  /// can evaluate it. A conjunct that is not `whole` evaluates the same on
  /// any partial mapping that binds its nodes.
  struct GlobalConjunct {
    lang::ExprPtr expr;
    std::vector<NodeId> nodes;
    bool whole = false;
  };
  /// The residual conjuncts in textual order (also consumed by the
  /// Datalog translator).
  const std::vector<GlobalConjunct>& GlobalPreds() const {
    return global_preds_;
  }

  /// Points `bindings` at an embedding into `data`: pattern node and edge
  /// names resolve through `node_mapping` and `edge_mapping` (which may be
  /// empty, as for EvalGlobalPred). The vectors are read at evaluation
  /// time, so a search binds its growing assignment once.
  void BindEmbedding(const Graph& data, const std::vector<NodeId>& node_mapping,
                     const std::vector<EdgeId>& edge_mapping,
                     Bindings* bindings) const;

  /// Evaluates residual conjuncts [*next, last) in textual order under
  /// `bindings` (see BindEmbedding), advancing *next past each one that
  /// holds. Returns false at the first that does not hold, or the error
  /// of the first that fails to evaluate; *next then names that conjunct.
  /// EvalGlobalPred is the whole range [0, GlobalPreds().size()).
  Result<bool> EvalGlobalPreds(const Bindings& bindings, size_t* next,
                               size_t last) const;

  /// Number of predicates pushed to node u (used by cost statistics).
  size_t NodePredCount(NodeId u) const {
    return node_preds_[u].size();
  }

  /// True if pattern edge `e` carries any pushed predicate (the matcher
  /// skips edge-compatibility scans for predicate- and attribute-free
  /// edges).
  bool EdgeHasPredicates(EdgeId e) const { return !edge_preds_[e].empty(); }

  /// Raw predicate expressions (consumed by the Datalog translator).
  const std::vector<lang::ExprPtr>& NodePreds(NodeId u) const {
    return node_preds_[u];
  }
  const std::vector<lang::ExprPtr>& EdgePreds(EdgeId e) const {
    return edge_preds_[e];
  }

 private:
  GraphPattern() = default;

  static Result<GraphPattern> Compile(std::string pattern_name,
                                      motif::BuiltGraph built,
                                      const lang::ExprPtr& where);

  /// Classifies a conjunct: pushes it to the single pattern node (or edge)
  /// it references, or to the residual global list with what it reads.
  void RouteConjunct(const lang::ExprPtr& conjunct);

  /// Interns tags and attribute constraints into SymbolTable::Global()
  /// (called once at compile; the snapshot compatibility paths read these).
  void InternSymbols();

  std::string name_;
  motif::BuiltGraph built_;
  std::vector<std::vector<lang::ExprPtr>> node_preds_;
  std::vector<std::vector<lang::ExprPtr>> edge_preds_;
  std::vector<GlobalConjunct> global_preds_;
  std::vector<SymbolId> node_tag_syms_;
  std::vector<SymbolId> edge_tag_syms_;
  std::vector<std::vector<SymReq>> node_reqs_;
  std::vector<std::vector<SymReq>> edge_reqs_;

  bool NodeCompatibleWith(NodeId u, const Graph& data, NodeId v,
                          std::vector<NodeId>* mapping) const;
  bool EdgeCompatibleWith(EdgeId pe, const Graph& data, EdgeId de,
                          std::vector<NodeId>* mapping,
                          std::vector<EdgeId>* edge_mapping) const;
  bool EdgeCompatibleSnap(EdgeId pe, const GraphSnapshot& snap,
                          const Graph& data, EdgeId de,
                          std::vector<NodeId>* mapping,
                          std::vector<EdgeId>* edge_mapping) const;
  bool NodePredsOk(NodeId u, const Graph& data, NodeId v,
                   std::vector<NodeId>* mapping) const;
  bool EdgePredsOk(EdgeId pe, const Graph& data, EdgeId de,
                   std::vector<NodeId>* mapping,
                   std::vector<EdgeId>* edge_mapping) const;

  // Scratch state for predicate evaluation (see class comment).
  mutable std::vector<NodeId> scratch_mapping_;
  mutable std::vector<EdgeId> scratch_edge_mapping_;
};

/// Per-worker scratch mappings for the thread-safe compatibility overloads.
/// Grown lazily to the pattern it is used with; entries are invalid outside
/// a call, so one scratch can be reused across patterns and stages.
class PatternScratch {
 public:
  void Reset() {
    mapping_.clear();
    edge_mapping_.clear();
  }

 private:
  friend class GraphPattern;
  std::vector<NodeId> mapping_;
  std::vector<EdgeId> edge_mapping_;
};

}  // namespace graphql::algebra

#endif  // GRAPHQL_ALGEBRA_PATTERN_H_
