#include "exec/plan_cache.h"

#include <cstdio>
#include <string>

#include "graph/snapshot.h"
#include "lang/lexer.h"
#include "lang/token.h"
#include "obs/recorder.h"

namespace graphql::exec {

namespace {

/// The lexeme of punctuation tokens whose `text` the lexer leaves empty.
/// Mirrors the flight recorder's shape normalization so both produce the
/// same string for the same query.
std::string_view KeyPunctuationLexeme(lang::TokenKind kind) {
  using lang::TokenKind;
  switch (kind) {
    case TokenKind::kLBrace: return "{";
    case TokenKind::kRBrace: return "}";
    case TokenKind::kLParen: return "(";
    case TokenKind::kRParen: return ")";
    case TokenKind::kLAngle: return "<";
    case TokenKind::kRAngle: return ">";
    case TokenKind::kComma: return ",";
    case TokenKind::kSemicolon: return ";";
    case TokenKind::kDot: return ".";
    case TokenKind::kAssign: return "=";
    case TokenKind::kColonEq: return ":=";
    case TokenKind::kPipe: return "|";
    case TokenKind::kAmp: return "&";
    case TokenKind::kPlus: return "+";
    case TokenKind::kMinus: return "-";
    case TokenKind::kStar: return "*";
    case TokenKind::kSlash: return "/";
    case TokenKind::kEq: return "==";
    case TokenKind::kNe: return "!=";
    case TokenKind::kGe: return ">=";
    case TokenKind::kLe: return "<=";
    default: return "";
  }
}

/// Standard hash combine; either half alone would collide "same shape,
/// different constants" into one slot.
uint64_t CombineKeyHash(uint64_t shape_hash, uint64_t lit_hash) {
  return shape_hash ^ (lit_hash + 0x9e3779b97f4a7c15ull +
                       (shape_hash << 6) + (shape_hash >> 2));
}

}  // namespace

bool PlanKey::From(std::string_view source, PlanKey* out) {
  Result<std::vector<lang::Token>> tokens = lang::Lexer(source).Tokenize();
  if (!tokens.ok()) return false;
  out->shape.clear();
  out->literals.clear();
  for (const lang::Token& t : tokens.value()) {
    if (t.kind == lang::TokenKind::kEnd) break;
    std::string_view piece;
    switch (t.kind) {
      case lang::TokenKind::kInt:
      case lang::TokenKind::kFloat:
      case lang::TokenKind::kString:
        piece = "?";
        // Record the slot's kind with its value: 1 and 1.0 and "1" are
        // different parameters. Numeric tokens carry their value in the
        // dedicated fields (`text` is empty for them); %.17g round-trips
        // every double.
        if (t.kind == lang::TokenKind::kInt) {
          out->literals.push_back('i');
          out->literals.append(std::to_string(t.int_value));
        } else if (t.kind == lang::TokenKind::kFloat) {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "f%.17g", t.float_value);
          out->literals.append(buf);
        } else {
          out->literals.push_back('s');
          out->literals.append(t.text);
        }
        out->literals.push_back('\x1f');
        break;
      default:
        piece = t.text.empty() ? KeyPunctuationLexeme(t.kind) : t.text;
        break;
    }
    if (piece.empty()) continue;
    if (!out->shape.empty()) out->shape.push_back(' ');
    out->shape.append(piece);
  }
  out->hash = CombineKeyHash(obs::FlightRecorder::HashShape(out->shape),
                             obs::FlightRecorder::HashShape(out->literals));
  return true;
}

void PlanKey::FromPrepared(std::string_view template_text,
                           std::string_view param_kinds, PlanKey* out) {
  // The raw template (placeholders intact) is the shape: one entry per
  // prepared text. The '$' prefix on the literal signature keeps prepared
  // keys disjoint from From()'s 'i'/'f'/'s'-record signatures even if a
  // query's token-joined shape string happened to equal a template text.
  out->shape.assign(template_text);
  out->literals.assign("$");
  out->literals.append(param_kinds);
  out->hash = CombineKeyHash(obs::FlightRecorder::HashShape(out->shape),
                             obs::FlightRecorder::HashShape(out->literals));
}

size_t CachedPlan::EstimateBytes(const PlanKey& key, const CachedPlan& plan) {
  size_t bytes = sizeof(CachedPlan) + key.shape.size() + key.literals.size() +
                 plan.shape.size();
  bytes += plan.program.statements.size() * 512;
  for (const sema::Diagnostic& d : plan.analysis.diagnostics) {
    bytes += sizeof(sema::Diagnostic) + d.message.size();
  }
  bytes += plan.analysis.statements.size() * sizeof(sema::StatementInfo);
  bytes += plan.param_slots.size() * sizeof(CachedPlan::ParamSlot);
  for (const auto& alts : plan.alternatives) {
    for (const algebra::GraphPattern& alt : alts) {
      // Per-node/edge structures (preds, reqs, interned tags) dominate.
      bytes += 1024 + 256 * (alt.graph().NumNodes() + alt.graph().NumEdges());
      bytes += EstimateSnapshotBytes(alt.graph());
    }
  }
  return bytes;
}

size_t CachedPlan::EstimateSnapshotBytes(const Graph& pattern) {
  // Per node: its symbols and CSR offsets. Per edge: its symbols, its
  // endpoints, a CSR entry at each end and the distinct-neighbour slots.
  // Per attribute: a column cell (id, value, symbol, string payload) and,
  // counted once per cell rather than per name, the column holding it.
  size_t bytes = sizeof(GraphSnapshot) + 64 + 32 * pattern.NumNodes() +
                 64 * pattern.NumEdges();
  auto cells = [&bytes](const AttrTuple& t) {
    for (const auto& [name, value] : t.attrs()) {
      bytes += sizeof(GraphSnapshot::Column) + sizeof(int32_t) +
               sizeof(Value) + sizeof(SymbolId) +
               (value.is_string() ? value.AsString().size() : 0);
    }
  };
  for (size_t v = 0; v < pattern.NumNodes(); ++v) {
    cells(pattern.node(static_cast<NodeId>(v)).attrs);
  }
  for (size_t e = 0; e < pattern.NumEdges(); ++e) {
    cells(pattern.edge(static_cast<EdgeId>(e)).attrs);
  }
  return bytes;
}

std::shared_ptr<const CachedPlan> PlanCache::Lookup(const PlanKey& key,
                                                   uint64_t epoch) {
  auto it = map_.find(key.hash);
  if (it == map_.end()) return nullptr;
  Entry& e = it->second->second;
  if (e.shape != key.shape || e.literals != key.literals) return nullptr;
  if (e.epoch != epoch) {
    // Session state changed since this plan was compiled; drop it now so
    // the slot is free for the recompile that follows.
    bytes_ -= e.plan->bytes;
    lru_.erase(it->second);
    map_.erase(it);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // Touch.
  return e.plan;
}

size_t PlanCache::Insert(const PlanKey& key, uint64_t epoch,
                         std::shared_ptr<const CachedPlan> plan) {
  if (plan == nullptr || plan->bytes > max_bytes_) return 0;
  auto it = map_.find(key.hash);
  if (it != map_.end()) {
    bytes_ -= it->second->second.plan->bytes;
    lru_.erase(it->second);
    map_.erase(it);
  }
  bytes_ += plan->bytes;
  lru_.emplace_front(key.hash,
                     Entry{key.shape, key.literals, epoch, std::move(plan)});
  map_[key.hash] = lru_.begin();
  size_t evicted = 0;
  while (bytes_ > max_bytes_ && lru_.size() > 1) {
    const auto& victim = lru_.back();
    bytes_ -= victim.second.plan->bytes;
    map_.erase(victim.first);
    lru_.pop_back();
    ++evicted;
  }
  return evicted;
}

}  // namespace graphql::exec
