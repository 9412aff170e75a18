#include "match/pred_bytecode.h"

#include "algebra/pattern.h"

namespace graphql::match {

namespace {

Tri TriOf(bool b) { return b ? Tri::kTrue : Tri::kFalse; }

/// And/Or over three-valued verdicts, matching EvalExpr's short-circuit:
/// an error in the left operand propagates; a decided left operand hides
/// whatever the right would have done (including erroring), which is safe
/// here because compiled operands are side-effect-free.
Tri And3(Tri a, Tri b) {
  if (a == Tri::kError) return Tri::kError;
  if (a == Tri::kFalse) return Tri::kFalse;
  return b;
}
Tri Or3(Tri a, Tri b) {
  if (a == Tri::kError) return Tri::kError;
  if (a == Tri::kTrue) return Tri::kTrue;
  return b;
}

}  // namespace

/// Recursive-descent compiler from a conjunct's AST to the register
/// bytecode. Every helper returns the register holding the sub-verdict,
/// or -1 when the construct is outside the ISA (the whole compile then
/// fails and the conjunct stays on the AST interpreter).
class PredProgram::Compiler {
 public:
  Compiler(const algebra::GraphPattern& pattern, NodeId u, PredProgram* out)
      : pattern_(pattern), u_(u), out_(out) {}

  bool Compile(const lang::Expr& pred) {
    int reg = CompileExpr(pred);
    if (reg < 0) return false;
    out_->num_regs_ = static_cast<uint8_t>(next_reg_);
    return true;
  }

 private:
  int AllocReg() {
    if (next_reg_ >= static_cast<int>(kMaxRegs)) return -1;
    return next_reg_++;
  }

  /// Slot in the attr table for an attribute symbol (deduplicated).
  uint16_t SlotFor(SymbolId sym) {
    for (size_t i = 0; i < out_->attr_syms_.size(); ++i) {
      if (out_->attr_syms_[i] == sym) return static_cast<uint16_t>(i);
    }
    out_->attr_syms_.push_back(sym);
    return static_cast<uint16_t>(out_->attr_syms_.size() - 1);
  }

  /// Maps a dotted path to an attribute of pattern node u_, reproducing
  /// the resolution Bindings::ResolvePath performs under NodePredsOk's
  /// environment (current node = v, default + pattern-name binding over
  /// the pattern's node names, mapping live only for u_). Paths that
  /// resolve to anything else — another node (AST path: unmapped →
  /// error → reject), a graph attribute ({pattern-name, attr}), a data
  /// edge name — are not compiled.
  std::optional<uint16_t> AttrSlotFor(const std::vector<std::string>& path) {
    const std::string& pname = pattern_.name();
    const auto& names = pattern_.node_names();
    if (path.size() == 1) {
      // Bare name: attribute of the current node.
      return SlotFor(SymbolTable::Global().Intern(path[0]));
    }
    if (path.size() == 2) {
      // {pattern-name, attr} resolves to a *graph* attribute upstream;
      // leave it to the interpreter.
      if (!pname.empty() && path[0] == pname) return std::nullopt;
      auto it = names.find(path[0]);
      if (it == names.end() || it->second != u_) return std::nullopt;
      return SlotFor(SymbolTable::Global().Intern(path[1]));
    }
    if (path.size() == 3 && !pname.empty() && path[0] == pname) {
      auto it = names.find(path[1]);
      if (it == names.end() || it->second != u_) return std::nullopt;
      return SlotFor(SymbolTable::Global().Intern(path[2]));
    }
    return std::nullopt;
  }

  uint16_t ConstSlot(const Value& v) {
    out_->consts_.push_back(v);
    return static_cast<uint16_t>(out_->consts_.size() - 1);
  }

  static bool IsComparison(lang::BinaryOp op) {
    switch (op) {
      case lang::BinaryOp::kEq:
      case lang::BinaryOp::kNe:
      case lang::BinaryOp::kLt:
      case lang::BinaryOp::kLe:
      case lang::BinaryOp::kGt:
      case lang::BinaryOp::kGe:
        return true;
      default:
        return false;
    }
  }

  int CompileComparison(const lang::Expr& e) {
    // Operands must be literals or own-node attribute references;
    // arithmetic subexpressions fall back.
    struct Operand {
      bool is_attr = false;
      uint16_t index = 0;
      const Value* literal = nullptr;
    };
    auto classify = [&](const lang::Expr& o) -> std::optional<Operand> {
      if (o.kind == lang::Expr::Kind::kLiteral) {
        return Operand{false, 0, &o.literal};
      }
      if (o.kind == lang::Expr::Kind::kName) {
        std::optional<uint16_t> slot = AttrSlotFor(o.path);
        if (!slot) return std::nullopt;
        return Operand{true, *slot, nullptr};
      }
      return std::nullopt;
    };
    std::optional<Operand> lhs = classify(*e.lhs);
    std::optional<Operand> rhs = classify(*e.rhs);
    if (!lhs || !rhs) return -1;

    // String equality fast path: one attr side, one string-literal side
    // becomes a symbol compare (== and != are symmetric in their null
    // handling, so operand order does not matter here).
    if (e.op == lang::BinaryOp::kEq || e.op == lang::BinaryOp::kNe) {
      const Operand* attr = nullptr;
      const Operand* lit = nullptr;
      if (lhs->is_attr && !rhs->is_attr) {
        attr = &*lhs;
        lit = &*rhs;
      } else if (rhs->is_attr && !lhs->is_attr) {
        attr = &*rhs;
        lit = &*lhs;
      }
      if (attr != nullptr && lit->literal->is_string()) {
        int dst = AllocReg();
        if (dst < 0) return -1;
        Insn insn;
        insn.op = e.op == lang::BinaryOp::kEq ? Insn::Op::kEqSym
                                              : Insn::Op::kNeSym;
        insn.dst = static_cast<uint8_t>(dst);
        insn.slot = attr->index;
        insn.sym = SymbolTable::Global().Intern(lit->literal->AsString());
        out_->insns_.push_back(insn);
        return dst;
      }
    }

    int dst = AllocReg();
    if (dst < 0) return -1;
    Insn insn;
    insn.op = Insn::Op::kCmp;
    insn.dst = static_cast<uint8_t>(dst);
    insn.cmp = e.op;
    insn.lhs_is_attr = lhs->is_attr;
    insn.lhs = lhs->is_attr ? lhs->index : ConstSlot(*lhs->literal);
    insn.rhs_is_attr = rhs->is_attr;
    insn.rhs = rhs->is_attr ? rhs->index : ConstSlot(*rhs->literal);
    out_->insns_.push_back(insn);
    return dst;
  }

  int CompileExpr(const lang::Expr& e) {
    switch (e.kind) {
      case lang::Expr::Kind::kLiteral: {
        int dst = AllocReg();
        if (dst < 0) return -1;
        Insn insn;
        insn.op = Insn::Op::kConst;
        insn.dst = static_cast<uint8_t>(dst);
        insn.imm = TriOf(e.literal.Truthy());
        out_->insns_.push_back(insn);
        return dst;
      }
      case lang::Expr::Kind::kName: {
        std::optional<uint16_t> slot = AttrSlotFor(e.path);
        if (!slot) return -1;
        int dst = AllocReg();
        if (dst < 0) return -1;
        Insn insn;
        insn.op = Insn::Op::kAttrTruthy;
        insn.dst = static_cast<uint8_t>(dst);
        insn.slot = *slot;
        out_->insns_.push_back(insn);
        return dst;
      }
      case lang::Expr::Kind::kBinary: {
        if (e.op == lang::BinaryOp::kAnd || e.op == lang::BinaryOp::kOr) {
          int a = CompileExpr(*e.lhs);
          if (a < 0) return -1;
          int b = CompileExpr(*e.rhs);
          if (b < 0) return -1;
          int dst = AllocReg();
          if (dst < 0) return -1;
          Insn insn;
          insn.op = e.op == lang::BinaryOp::kAnd ? Insn::Op::kAnd
                                                 : Insn::Op::kOr;
          insn.dst = static_cast<uint8_t>(dst);
          insn.a = static_cast<uint8_t>(a);
          insn.b = static_cast<uint8_t>(b);
          out_->insns_.push_back(insn);
          return dst;
        }
        if (IsComparison(e.op)) return CompileComparison(e);
        return -1;  // Arithmetic: interpreter fallback.
      }
    }
    return -1;
  }

  const algebra::GraphPattern& pattern_;
  NodeId u_;
  PredProgram* out_;
  int next_reg_ = 0;
};

std::optional<PredProgram> PredProgram::CompileNodePred(
    const algebra::GraphPattern& pattern, NodeId u, const lang::Expr& pred) {
  PredProgram prog;
  Compiler compiler(pattern, u, &prog);
  if (!compiler.Compile(pred)) return std::nullopt;
  return prog;
}

Tri PredProgram::Eval(std::span<const GraphSnapshot::Column* const> cols,
                      int32_t v) const {
  static const Value kNullValue;
  Tri regs[kMaxRegs];
  auto attr_value = [&](uint16_t slot) -> const Value* {
    const GraphSnapshot::Column* col = cols[slot];
    if (col == nullptr) return &kNullValue;  // Absent attribute: null.
    const Value* got = col->Find(v);
    return got != nullptr ? got : &kNullValue;
  };
  for (const Insn& insn : insns_) {
    switch (insn.op) {
      case Insn::Op::kConst:
        regs[insn.dst] = insn.imm;
        break;
      case Insn::Op::kAttrTruthy:
        regs[insn.dst] = TriOf(attr_value(insn.slot)->Truthy());
        break;
      case Insn::Op::kEqSym: {
        // Equal iff the stored value is the same interned string; absent
        // (null never equals) and non-string (kind mismatch) both yield
        // kNoSymbol, which a real symbol never equals.
        const GraphSnapshot::Column* col = cols[insn.slot];
        SymbolId got = col != nullptr ? col->FindValSym(v) : kNoSymbol;
        regs[insn.dst] = TriOf(got == insn.sym);
        break;
      }
      case Insn::Op::kNeSym: {
        const GraphSnapshot::Column* col = cols[insn.slot];
        SymbolId got = col != nullptr ? col->FindValSym(v) : kNoSymbol;
        regs[insn.dst] = TriOf(got != insn.sym);
        break;
      }
      case Insn::Op::kCmp: {
        const Value* lv =
            insn.lhs_is_attr ? attr_value(insn.lhs) : &consts_[insn.lhs];
        const Value* rv =
            insn.rhs_is_attr ? attr_value(insn.rhs) : &consts_[insn.rhs];
        Tri verdict;
        switch (insn.cmp) {
          case lang::BinaryOp::kEq:
            verdict = (lv->is_null() || rv->is_null())
                          ? Tri::kFalse
                          : TriOf(*lv == *rv);
            break;
          case lang::BinaryOp::kNe:
            verdict = (lv->is_null() || rv->is_null())
                          ? Tri::kTrue
                          : TriOf(*lv != *rv);
            break;
          case lang::BinaryOp::kLt:
          case lang::BinaryOp::kLe:
          case lang::BinaryOp::kGt:
          case lang::BinaryOp::kGe: {
            if (lv->is_null() || rv->is_null()) {
              verdict = Tri::kFalse;
              break;
            }
            // kGt/kGe evaluate as Less/LessEq with the operands swapped,
            // exactly as EvalExpr does.
            const Value* a = lv;
            const Value* b = rv;
            if (insn.cmp == lang::BinaryOp::kGt ||
                insn.cmp == lang::BinaryOp::kGe) {
              std::swap(a, b);
            }
            Result<bool> r = (insn.cmp == lang::BinaryOp::kLt ||
                              insn.cmp == lang::BinaryOp::kGt)
                                 ? Value::Less(*a, *b)
                                 : Value::LessEq(*a, *b);
            verdict = r.ok() ? TriOf(r.value()) : Tri::kError;
            break;
          }
          default:
            verdict = Tri::kError;  // Unreachable: compiler gates ops.
            break;
        }
        regs[insn.dst] = verdict;
        break;
      }
      case Insn::Op::kAnd:
        regs[insn.dst] = And3(regs[insn.a], regs[insn.b]);
        break;
      case Insn::Op::kOr:
        regs[insn.dst] = Or3(regs[insn.a], regs[insn.b]);
        break;
    }
  }
  return insns_.empty() ? Tri::kError : regs[insns_.back().dst];
}

NodePredPlan BuildNodePredPlan(const algebra::GraphPattern& pattern, NodeId u,
                               const GraphSnapshot& snap,
                               uint64_t* compiled_count,
                               uint64_t* fallback_count) {
  NodePredPlan plan;
  const std::vector<lang::ExprPtr>& preds = pattern.NodePreds(u);
  for (size_t i = 0; i < preds.size(); ++i) {
    std::optional<PredProgram> prog =
        PredProgram::CompileNodePred(pattern, u, *preds[i]);
    if (!prog) {
      plan.residual.push_back(static_cast<uint32_t>(i));
      if (fallback_count != nullptr) ++*fallback_count;
      continue;
    }
    NodePredPlan::Compiled c;
    c.program = std::move(*prog);
    c.cols.reserve(c.program.attr_syms().size());
    for (SymbolId sym : c.program.attr_syms()) {
      c.cols.push_back(snap.NodeColumn(sym));
    }
    plan.compiled.push_back(std::move(c));
    if (compiled_count != nullptr) ++*compiled_count;
  }
  return plan;
}

}  // namespace graphql::match
