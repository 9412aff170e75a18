#ifndef GRAPHQL_MATCH_PRED_BYTECODE_H_
#define GRAPHQL_MATCH_PRED_BYTECODE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/symbols.h"
#include "common/value.h"
#include "graph/snapshot.h"
#include "lang/ast.h"

namespace graphql::algebra {
class GraphPattern;
}

namespace graphql::match {

/// Three-valued predicate verdict. kError stands for an evaluation error
/// (e.g. ordering a string against a number), which the AST path treats
/// as "predicate rejects" — but which must still poison And/Or exactly the
/// way GQL_ASSIGN_OR_RETURN propagates through EvalExpr.
enum class Tri : uint8_t { kFalse = 0, kTrue = 1, kError = 2 };

/// A pushed-down single-node predicate compiled to a flat register
/// bytecode executed against snapshot columns, replacing the per-candidate
/// AST walk (Bindings setup + ResolvePath + recursive EvalExpr) of the
/// interpreter.
///
/// Covered ISA: comparisons (== != < <= > >=) between an attribute of the
/// predicate's own pattern node and a literal (or attribute/attribute,
/// literal/literal), truthiness of a bare attribute reference, literal
/// leaves, and And/Or combinations thereof. String equality compiles to an
/// interned-symbol compare against Column::FindValSym. Anything else
/// (arithmetic, references to other nodes, graph attributes) makes
/// CompileNodePred return nullopt and the caller falls back to the AST
/// interpreter for that conjunct.
///
/// Exactness contract: for every data node the program's verdict equals
/// `EvalPredicate(pred, bindings)` under NodePredsOk's bindings — kTrue
/// iff the AST predicate accepts, kFalse/kError iff it rejects (the
/// AST path folds errors into rejection). Eager evaluation plus
/// three-valued And/Or combinators reproduces EvalExpr's short-circuit
/// semantics because every compiled operand is side-effect-free:
/// And(lhs=false, rhs=would-error) is kFalse on both paths.
class PredProgram {
 public:
  /// Compiles one conjunct pushed to pattern node `u`. nullopt when the
  /// expression uses anything outside the bytecode ISA.
  static std::optional<PredProgram> CompileNodePred(
      const algebra::GraphPattern& pattern, NodeId u, const lang::Expr& pred);

  /// Attribute symbols the program reads; the caller resolves each to a
  /// snapshot column once (nullptr when the snapshot has no such column)
  /// and passes the array to Eval.
  const std::vector<SymbolId>& attr_syms() const { return attr_syms_; }

  /// Executes the program for data node `v`. `cols` is parallel to
  /// attr_syms().
  Tri Eval(std::span<const GraphSnapshot::Column* const> cols,
           int32_t v) const;

  /// Instruction count (observability/testing).
  size_t size() const { return insns_.size(); }

 private:
  struct Insn {
    enum class Op : uint8_t {
      kConst,       ///< reg[dst] = imm
      kAttrTruthy,  ///< reg[dst] = Truthy(attr[slot] at v); absent → false
      kEqSym,       ///< reg[dst] = (FindValSym(v) == sym)
      kNeSym,       ///< reg[dst] = (FindValSym(v) != sym)
      kCmp,         ///< reg[dst] = cmp(lhs, rhs) per EvalExpr semantics
      kAnd,         ///< reg[dst] = And3(reg[a], reg[b])
      kOr,          ///< reg[dst] = Or3(reg[a], reg[b])
    };
    Op op;
    uint8_t dst = 0;
    uint8_t a = 0;
    uint8_t b = 0;
    Tri imm = Tri::kFalse;
    uint16_t slot = 0;            ///< Attr slot (kAttrTruthy/kEqSym/kNeSym).
    SymbolId sym = kNoSymbol;     ///< Interned string literal (k{Eq,Ne}Sym).
    lang::BinaryOp cmp{};         ///< kCmp comparison operator.
    bool lhs_is_attr = false;     ///< kCmp lhs: attr slot vs. const pool.
    bool rhs_is_attr = false;
    uint16_t lhs = 0;
    uint16_t rhs = 0;
  };

  static constexpr size_t kMaxRegs = 64;

  class Compiler;

  std::vector<Insn> insns_;
  std::vector<Value> consts_;
  std::vector<SymbolId> attr_syms_;
  uint8_t num_regs_ = 0;
};

/// All compiled node predicates of one pattern, plus the per-conjunct
/// fallback bookkeeping. Built once per (pattern, retrieve) by the
/// SelectionPlan; read-only afterwards (workers share it).
struct NodePredPlan {
  /// One compiled conjunct of NodePreds(u).
  struct Compiled {
    PredProgram program;
    /// Column pointers parallel to program.attr_syms(), bound to the
    /// snapshot the plan was built for.
    std::vector<const GraphSnapshot::Column*> cols;
  };
  std::vector<Compiled> compiled;
  /// Indices into NodePreds(u) the compiler did not cover; evaluated via
  /// the AST interpreter (GraphPattern::NodePredsOkSubset).
  std::vector<uint32_t> residual;
};

/// Builds the predicate plan for pattern node `u` against `snap`:
/// compiles every pushed conjunct it can, records the rest as residual.
/// `compiled_count`/`fallback_count` (optional) receive the per-conjunct
/// coverage tallies for the `match.bytecode.*` metrics.
NodePredPlan BuildNodePredPlan(const algebra::GraphPattern& pattern, NodeId u,
                               const GraphSnapshot& snap,
                               uint64_t* compiled_count = nullptr,
                               uint64_t* fallback_count = nullptr);

}  // namespace graphql::match

#endif  // GRAPHQL_MATCH_PRED_BYTECODE_H_
