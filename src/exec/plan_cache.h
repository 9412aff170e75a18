#ifndef GRAPHQL_EXEC_PLAN_CACHE_H_
#define GRAPHQL_EXEC_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "algebra/pattern.h"
#include "lang/ast.h"
#include "sema/analyzer.h"

namespace graphql::exec {

/// Cache key material derived from raw query text by one lexer pass —
/// far cheaper than the parse/sema/pattern-compile front-end it stands in
/// for. `shape` is the token stream with every literal masked to `?`
/// (exactly the flight recorder's normalized query shape, so `:top` and
/// the plan cache agree on what "the same query" means); `literals` is the
/// parameter-slot signature — the masked-out literal tokens in order.
/// Queries differing only in constants share a shape but get distinct
/// cache entries, since compiled patterns bake literals into their pushed
/// predicates.
struct PlanKey {
  std::string shape;
  std::string literals;
  uint64_t hash = 0;  ///< HashShape(shape) combined with the literal hash.

  /// Lexes `source` into a key. False when the text does not lex (the
  /// parser will produce the real diagnostic; such queries bypass the
  /// cache).
  static bool From(std::string_view source, PlanKey* out);

  /// Key for a prepared statement: the template text itself (with its $N
  /// placeholders still in place) is the shape, so every execution of the
  /// same prepared query shares ONE cache entry no matter what literal
  /// values are bound. `param_kinds` is one character per bound parameter
  /// ('i'/'f'/'s'/'b'/'?') — executions that rebind a slot to a different
  /// *type* get their own entry, keeping the cached semantic analysis
  /// type-consistent. Never fails: no lexing happens (the $N placeholders
  /// would not lex anyway).
  static void FromPrepared(std::string_view template_text,
                           std::string_view param_kinds, PlanKey* out);
};

/// Everything the front-end produced for one query text: the parsed AST,
/// the semantic analysis, and — for pure programs — the compiled pattern
/// alternatives of every FLWR statement (where-pushdown already folded).
/// Entries are immutable and shared: a hit hands out a shared_ptr the
/// executor reads while the cache may concurrently evict the entry.
///
/// Parameterized entries (prepared $N statements) are the one exception
/// to immutability: `param_slots` points at literal Expr nodes inside
/// `program` whose Values the evaluator overwrites with the bound
/// parameters before each replay. That is safe under the evaluator's
/// thread-compatibility contract — the cache is per-evaluator, the
/// evaluator is single-threaded, and every prepared execution writes all
/// slots before running — but it is why a parameterized entry must only
/// ever be executed through Evaluator::RunPrepared.
struct CachedPlan {
  lang::Program program;
  sema::Analysis analysis;
  /// The flight recorder's normalized shape of `program` (printed AST,
  /// literals masked) — reused on hits so a cache hit never pays the
  /// print-and-relex pass and aggregates under the same `:top` bucket as
  /// its cold run.
  std::string shape;
  /// Parallel to program.statements; non-empty only for FLWR statements of
  /// pure programs (see Evaluator's cacheability gate).
  std::vector<std::vector<algebra::GraphPattern>> alternatives;
  /// One literal Expr inside `program` that carries a bound parameter
  /// value: before each replay the evaluator writes params[param] into
  /// expr->literal. The node is shared (shared_ptr) into the compiled
  /// pattern predicates, so the write flows into match-time predicate
  /// evaluation without recompiling anything.
  struct ParamSlot {
    lang::Expr* expr = nullptr;
    size_t param = 0;  ///< 0-based index into the bound parameter vector.
  };
  std::vector<ParamSlot> param_slots;
  /// True for prepared-statement entries. The cached semantic analysis was
  /// computed against the *first* execution's literal values, so its
  /// value-dependent conclusions (the unsatisfiability verdict) must not
  /// prune replays with different parameters.
  bool parameterized = false;
  /// Approximate heap footprint used for the cache's byte bound.
  size_t bytes = 0;

  /// Rough footprint estimate: key text plus per-statement and
  /// per-alternative costs. Deliberately coarse — the bound exists to keep
  /// a long session from hoarding plans, not to meter bytes exactly.
  static size_t EstimateBytes(const PlanKey& key, const CachedPlan& plan);

  /// The part of EstimateBytes for one alternative's pattern snapshot,
  /// which the match pipeline's indexed retrieve compiles and caches on
  /// the pattern graph for its profile and neighbourhood tests, estimated
  /// without compiling it. At least sizeof(GraphSnapshot) plus the
  /// snapshot's bytes().
  static size_t EstimateSnapshotBytes(const Graph& pattern);
};

/// Byte-bounded LRU over compiled query plans, keyed on normalized shape +
/// literal signature (+ the evaluator's epoch, checked at lookup). Not
/// thread-safe: each Evaluator owns one, matching the evaluator's own
/// thread-compatibility contract.
class PlanCache {
 public:
  explicit PlanCache(size_t max_bytes) : max_bytes_(max_bytes) {}

  /// The cached plan for `key`, or null. A hit requires the stored epoch
  /// to equal `epoch` (stale entries are erased, not returned) and the
  /// stored shape/literal strings to match exactly (hash collisions lose).
  std::shared_ptr<const CachedPlan> Lookup(const PlanKey& key, uint64_t epoch);

  /// Inserts (or replaces) the plan for `key` at `epoch`, then evicts
  /// least-recently-used entries until the byte bound holds. Returns the
  /// number of entries evicted (the caller owns the metrics). Plans larger
  /// than the whole bound are not admitted (returns 0, cache unchanged).
  size_t Insert(const PlanKey& key, uint64_t epoch,
                std::shared_ptr<const CachedPlan> plan);

  void Clear() {
    lru_.clear();
    map_.clear();
    bytes_ = 0;
  }

  size_t entries() const { return map_.size(); }
  size_t bytes() const { return bytes_; }
  size_t max_bytes() const { return max_bytes_; }

 private:
  struct Entry {
    std::string shape;
    std::string literals;
    uint64_t epoch = 0;
    std::shared_ptr<const CachedPlan> plan;
  };
  using Lru = std::list<std::pair<uint64_t, Entry>>;  // Front = most recent.

  size_t max_bytes_;
  size_t bytes_ = 0;
  Lru lru_;
  std::unordered_map<uint64_t, Lru::iterator> map_;
};

}  // namespace graphql::exec

#endif  // GRAPHQL_EXEC_PLAN_CACHE_H_
