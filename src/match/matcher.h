#ifndef GRAPHQL_MATCH_MATCHER_H_
#define GRAPHQL_MATCH_MATCHER_H_

#include <cstdint>
#include <vector>

#include "algebra/matched_graph.h"
#include "algebra/pattern.h"
#include "common/governor.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "graph/graph.h"
#include "graph/snapshot.h"

namespace graphql::match {

struct MatchOptions {
  /// Return all mappings; when false, stop at the first (the paper's
  /// "exhaustive" selection option, Section 3.3).
  bool exhaustive = true;
  /// Hard cap on returned matches, mirroring the paper's experimental
  /// setup ("queries having too many hits (more than 1000) are terminated
  /// immediately"). SIZE_MAX disables the cap.
  size_t max_matches = SIZE_MAX;
  /// Optional per-query resource governor (deadline / cancellation /
  /// unified step budget / memory budget). Null = ungoverned. Every search
  /// step is charged to GovernPoint::kSearch; a trip ends the search with
  /// the matches found so far and `SearchStats::governor_tripped` set.
  ResourceGovernor* governor = nullptr;
};

struct SearchStats {
  uint64_t steps = 0;           ///< Candidate nodes tried (Search loop).
  uint64_t edge_checks = 0;     ///< Check() edge probes.
  uint64_t backtracks = 0;      ///< Assignments undone during the DFS.
  /// Matches found, including speculative parallel ones the root-order
  /// merge discards.
  uint64_t matches = 0;
  uint64_t csr_edge_probes = 0;  ///< CSR edge-run entries examined.
  /// Prefixes a residual conjunct placed before the leaf rejected, each
  /// pruning the subtree below it.
  uint64_t pred_rejects = 0;
  bool truncated = false;       ///< Stopped due to max_matches.
  bool governor_tripped = false;  ///< Governor deadline/cancel/budget trip.
  /// Stopped at SearchMatches' `max_tries` cap: the search needed one try
  /// more than the cap allows.
  bool out_of_tries = false;

  /// Adds another search's counts; the flags are or-ed.
  void Add(const SearchStats& other);
};

/// The basic graph pattern matching search (Algorithm 4.1, second phase):
/// depth-first search over the space Phi(u_1) x ... x Phi(u_k) in the given
/// order, with per-edge Check() pruning against already-mapped nodes,
/// per-edge predicate evaluation, and graph-wide predicate evaluation.
///
/// Each residual conjunct of the graph-wide predicate runs right after the
/// candidate that binds its last pattern node is assigned, raised to the
/// position of any earlier conjunct so the textual order holds; one that
/// reads an edge, a graph attribute or a name outside the pattern runs on
/// complete embeddings. A false verdict prunes the subtree (counted in
/// `pred_rejects`); an evaluation error defers the subtree's conjuncts to
/// its leaves, so the search fails with that error exactly when evaluating
/// every conjunct on complete embeddings would. The matches, their order
/// and the status are therefore those of leaf-only evaluation, while
/// `steps`, `backtracks` and every governor trip follow the pruned search.
///
/// `candidates[u]` is the feasible-mate list Phi(u) for every pattern node
/// (the first phase; see MatchPipeline for its construction), strictly
/// ascending by node id (InvalidArgument otherwise), and `order` a
/// permutation of the pattern's nodes.
///
/// Candidates are assumed NodeCompatible (F_u already evaluated during
/// retrieval); the search re-checks only edges and the global predicate.
/// A position with a back edge to an already-mapped pattern node draws its
/// candidates from that node's CSR run instead of scanning all of Phi(u),
/// and charges every skipped candidate as a failed try, so `steps` still
/// counts Algorithm 4.1's candidate tries and every budget trips on the
/// same try as a plain scan.
///
/// `num_threads` resolving to two or more workers (`pool` null = the
/// shared pool) hands the roots Phi(order[0]) to the workers in ascending
/// order (the caller participates; see ThreadPool), each root explored by
/// an independent DFS with per-worker match state. Workers never charge
/// the governor: each root counts its tries and match bytes in a
/// TaskLedger, and the calling thread merges the per-root lists in root
/// order, replaying the serial run's governor calls as it goes. The
/// returned matches — set AND ordering — the governor's steps, memory
/// and trip, `governor_tripped` and `truncated` therefore equal the
/// serial run's at any thread count (max_matches truncation, first-match
/// mode, error precedence, step, memory and fault trips included; a
/// deadline or cancel trip still cuts a prefix in root order, at a
/// timing-dependent point). `steps`, `edge_checks`, `backtracks`,
/// `matches` and `csr_edge_probes` count the work the workers actually
/// did. A worker skips root r once finished roots before r hold the cap
/// (max_matches, or 1 in first-match mode) or have used the step or
/// memory budget left when the search started: the merge would discard r.
/// `run_stats`, when given, receives the fan-out's RunStats.
///
/// `max_tries` caps the candidate tries: the search stops, with the
/// matches found so far and `out_of_tries` set, where it would make try
/// number max_tries + 1. `steps` counts that try, as it counts one that
/// trips the governor, but the governor is not charged for it; the tries
/// before it are charged as usual. The cap is counted and replayed like
/// the governor's step budget, so it stops the search on the same try,
/// with the same matches, at any thread count. A governor trip on an
/// earlier try wins.
///
/// Counts accumulate in each engine during the DFS and are added to
/// `stats` once the search finishes, so counting adds no per-step
/// synchronization.
///
/// Edge probes run over the data graph's compiled snapshot (CSR runs and
/// interned tags), fetched here through data.snapshot().
Result<std::vector<algebra::MatchedGraph>> SearchMatches(
    const algebra::GraphPattern& pattern, const Graph& data,
    const std::vector<std::vector<NodeId>>& candidates,
    const std::vector<NodeId>& order, const MatchOptions& options = {},
    SearchStats* stats = nullptr, int num_threads = 0,
    ThreadPool* pool = nullptr, ThreadPool::RunStats* run_stats = nullptr,
    uint64_t max_tries = UINT64_MAX);

/// The bytes an emitted match reserves against the governor's memory
/// budget; a caller that discards matches releases this much for each.
size_t MatchBytes(const algebra::MatchedGraph& m);

/// The declaration-order permutation 0..k-1 (search "w/o optimized order").
std::vector<NodeId> DeclarationOrder(const algebra::GraphPattern& pattern);

}  // namespace graphql::match

#endif  // GRAPHQL_MATCH_MATCHER_H_
