#ifndef GRAPHQL_MATCH_PROFILE_H_
#define GRAPHQL_MATCH_PROFILE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/symbols.h"
#include "graph/snapshot.h"
#include "match/neighborhood.h"

namespace graphql::match {

/// A neighborhood profile (Section 4.2): the multiset of labels occurring
/// in the radius-r neighborhood of a node (including the node itself),
/// represented as a sorted sequence of label symbols from the process-wide
/// SymbolTable. Profiles are the light-weight alternative to full
/// neighborhood subgraphs: node v can host node u only if profile(u) is a
/// sub-multiset of profile(v).
///
/// Profiles come from the same NeighborhoodWalker as neighborhood
/// subgraphs. This heap form is what BuildProfile returns and what a
/// pattern's profiles are kept in; LabelIndex stores the data graph's
/// profiles flat (one CSR array of symbols) and hands them out as spans,
/// each with a ProfileSignature.
///
/// Labels are interned through SymbolTable::Global() — the same id space
/// as GraphSnapshot and LabelIndex — so a label always maps to one id no
/// matter which structure interned it first.
using Profile = std::vector<SymbolId>;

/// Appends the profile of a walked neighborhood to `out`: the labels of
/// `members` in `snap`, sorted. Unlabeled members contribute nothing.
void AppendProfile(const GraphSnapshot& snap, std::span<const NodeId> members,
                   std::vector<SymbolId>* out);

/// The profile of node v over the walker's snapshot: the labels of every
/// node within `radius` hops (hop 0 = v itself), sorted.
Profile BuildProfile(NeighborhoodWalker* walker, NodeId v, int radius);

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
