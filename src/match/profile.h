#ifndef GRAPHQL_MATCH_PROFILE_H_
#define GRAPHQL_MATCH_PROFILE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/symbols.h"
#include "graph/graph.h"
#include "graph/snapshot.h"

namespace graphql::match {

/// A neighborhood profile (Section 4.2): the multiset of labels occurring
/// in the radius-r neighborhood of a node (including the node itself),
/// represented as a sorted sequence of label symbols from the process-wide
/// SymbolTable. Profiles are the light-weight alternative to full
/// neighborhood subgraphs: node v can host node u only if profile(u) is a
/// sub-multiset of profile(v).
///
/// This heap form is what the builders return and what a pattern's
/// profiles are kept in; LabelIndex stores the data graph's profiles flat
/// (one CSR array of symbols) and hands them out as spans, each with a
/// ProfileSignature.
///
/// Labels are interned through SymbolTable::Global() — the same id space
/// as GraphSnapshot and LabelIndex — so a label always maps to one id no
/// matter which structure interned it first.
using Profile = std::vector<SymbolId>;

/// Builds the profile of node v in graph g: labels of every node within
/// `radius` hops (hop 0 = v itself), sorted. Unlabeled nodes contribute
/// nothing. `scratch_dist` must be a vector of size g.NumNodes() filled
/// with -1; it is restored before returning (amortizes allocation across a
/// whole graph).
Profile BuildProfile(const Graph& g, NodeId v, int radius,
                     std::vector<int>* scratch_dist);

/// Convenience overload that allocates its own scratch space.
Profile BuildProfile(const Graph& g, NodeId v, int radius);

/// Snapshot overload: BFS over the CSR arrays reading pre-interned label
/// symbols — no string hashing in the loop. Produces exactly the profile
/// the builder overload produces for the source graph.
Profile BuildProfile(const GraphSnapshot& snap, NodeId v, int radius,
                     std::vector<int>* scratch_dist);

/// True if sorted multiset `needle` is contained in sorted multiset
/// `haystack` (the profile pruning test). An element equal to kNoSymbol in
/// `needle` makes the test fail, since no data node carries an unknown
/// label.
bool ProfileContains(const Profile& haystack, const Profile& needle);

/// ProfileContains over spans (a LabelIndex profile, a pattern profile).
/// A separate name: a span overload would make brace-list calls such as
/// ProfileContains({}, {1}) ambiguous.
bool ProfileSpanContains(std::span<const SymbolId> haystack,
                         std::span<const SymbolId> needle);

/// A 64-bit signature of a profile's label set: bit (sym & 63) is set for
/// every symbol in it. If needle is a sub-multiset of haystack, its symbol
/// set is a subset of haystack's, so
///   ProfileSignature(needle) & ~ProfileSignature(haystack) != 0
/// proves that haystack does not contain needle. Distinct symbols may
/// share a bit, so a zero result proves nothing and the merge decides.
uint64_t ProfileSignature(std::span<const SymbolId> profile);

}  // namespace graphql::match

#endif  // GRAPHQL_MATCH_PROFILE_H_
