#ifndef GRAPHQL_MATCH_LABEL_INDEX_H_
#define GRAPHQL_MATCH_LABEL_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/symbols.h"
#include "graph/graph.h"
#include "graph/snapshot.h"
#include "match/neighborhood.h"
#include "match/profile.h"
#include "rel/btree.h"

namespace graphql::match {

struct LabelIndexOptions {
  /// Radius of the stored neighborhood subgraphs and profiles (Section 5.1
  /// uses radius 1). Radius 0 degenerates both to plain labels.
  int radius = 1;
  /// Store per-node profiles (one flat array of label symbols for the
  /// whole graph, plus one 64-bit signature per node).
  bool build_profiles = true;
  /// Store per-node neighborhood subgraphs for retrieve-by-subgraphs: one
  /// flat array of member ids for the whole graph, plus an edge count per
  /// node. The members are the profile's nodes, so this costs about what
  /// profiles do.
  bool build_neighborhoods = true;
  /// Node attributes to index in B+-trees for exact and range retrieval
  /// (the paper's "node attributes can be indexed directly using
  /// traditional index structures such as B-trees", Section 4.2). The
  /// "label" attribute is always covered by the hashtable; list others
  /// here, e.g. {"year", "weight"}.
  std::vector<std::string> indexed_attributes;
};

/// The access-method index over a data graph (Section 4.2): a hashtable
/// from node label to node list (standing in for the attribute B-tree),
/// with optional per-node neighborhood subgraphs and profiles, plus the
/// label / label-pair frequency statistics that drive the cost model of
/// Section 4.4.
///
/// Labels are keyed by process-wide SymbolId (SymbolTable::Global()), the
/// same id space used by GraphSnapshot and profiles, so every structure
/// agrees on what id a label has. The index reads only the graph's
/// compiled snapshot: one NeighborhoodWalker pass fills the profiles and
/// neighborhoods, and B+-trees for indexed attributes are loaded straight
/// from the snapshot's columns.
class LabelIndex {
 public:
  LabelIndex() = default;

  /// Builds a private index in one pass over `g`'s snapshot, and keeps
  /// that snapshot alive.
  static LabelIndex Build(const Graph& g, LabelIndexOptions options = {});

  /// The index of `g`'s current snapshot with radius-1 profiles, no
  /// attribute trees, and neighborhood subgraphs when
  /// `with_neighborhoods` — the two option sets the evaluator uses. It is
  /// built at most once per snapshot and cached on it
  /// (GraphSnapshot::Derived), so every caller over the same snapshot
  /// shares one copy, and the copy is freed with the snapshot. The
  /// returned pointer owns the snapshot: holding the index keeps both
  /// alive. When `built` is non-null it is set to whether this call built
  /// the index.
  static std::shared_ptr<const LabelIndex> Shared(const Graph& g,
                                                  bool with_neighborhoods,
                                                  bool* built = nullptr);

  const LabelIndexOptions& options() const { return options_; }
  /// The compiled snapshot the index was built from.
  const GraphSnapshot& snapshot() const { return *snap_; }

  /// Number of distinct labels appearing in this graph.
  size_t NumLabels() const { return by_label_.size(); }

  /// The label string for a symbol id (empty for kNoSymbol / unknown).
  std::string_view LabelName(SymbolId label) const;

  /// The symbol id for a label string; kNoSymbol if the string was never
  /// interned anywhere in the process (in particular, not in this graph).
  SymbolId LabelSym(std::string_view label) const;

  /// Nodes whose "label" attribute equals `label`; empty list if none.
  const std::vector<NodeId>& NodesWithLabel(std::string_view label) const;
  const std::vector<NodeId>& NodesWithLabelSym(SymbolId label) const;

  /// Nodes with no label attribute (wildcard pattern nodes must scan all
  /// nodes; unlabeled data nodes are still reachable through this list).
  const std::vector<NodeId>& UnlabeledNodes() const { return unlabeled_; }

  bool has_profiles() const { return !profile_sigs_.empty(); }
  bool has_neighborhoods() const { return !nbh_offsets_.empty(); }
  /// Node v's profile, sorted (a view into one CSR array).
  std::span<const SymbolId> profile(NodeId v) const {
    return {profile_syms_.data() + profile_offsets_[v],
            profile_syms_.data() + profile_offsets_[v + 1]};
  }
  /// ProfileSignature(profile(v)), precomputed.
  uint64_t profile_signature(NodeId v) const { return profile_sigs_[v]; }
  /// Node v's neighborhood subgraph (a view into one CSR array).
  NeighborhoodSubgraph neighborhood(NodeId v) const {
    return {snap_,
            {nbh_members_.data() + nbh_offsets_[v],
             nbh_members_.data() + nbh_offsets_[v + 1]},
            nbh_edges_[v]};
  }

  /// Number of nodes carrying the label symbol (0 if unknown).
  size_t LabelFrequency(SymbolId label) const;
  size_t LabelFrequency(std::string_view label) const;

  /// Number of edges whose endpoint labels are (a, b), order-insensitive
  /// for undirected graphs.
  size_t EdgePairFrequency(SymbolId a, SymbolId b) const;

  /// The cost model's edge probability P(e(u,v)) = freq(e) /
  /// (freq(u) * freq(v)) for endpoint labels (a, b) (Section 4.4).
  /// Returns `fallback` when either label is unknown or unlabeled.
  double EdgeProbability(SymbolId a, SymbolId b, double fallback) const;

  /// Label symbols sorted by descending frequency, ties broken by first
  /// appearance in the graph (deterministic regardless of global
  /// interning history; used by the clique-query generator, which samples
  /// from the top 40 most frequent labels).
  std::vector<SymbolId> LabelsByFrequency() const;

  /// True if `attr` was listed in LabelIndexOptions::indexed_attributes.
  bool HasAttributeIndex(std::string_view attr) const;

  /// Nodes whose `attr` equals `v` (empty when the attribute is not
  /// indexed; nodes lacking the attribute are never returned).
  std::vector<NodeId> AttrExact(std::string_view attr, const Value& v) const;

  /// Nodes whose `attr` falls in the given interval (null bound =
  /// unbounded). Ordered by attribute value.
  std::vector<NodeId> AttrRange(std::string_view attr, const Value* lo,
                                bool lo_inclusive, const Value* hi,
                                bool hi_inclusive) const;

 private:
  /// Builds over `snap` without keeping it alive.
  LabelIndex(const GraphSnapshot& snap, LabelIndexOptions options);

  /// Not owning: a shared index lives in its snapshot's slot, so owning
  /// the snapshot would make a cycle. `pin_` owns it for Build's indexes.
  const GraphSnapshot* snap_ = nullptr;
  std::shared_ptr<const GraphSnapshot> pin_;
  LabelIndexOptions options_;
  std::unordered_map<SymbolId, std::vector<NodeId>> by_label_;
  std::vector<NodeId> unlabeled_;
  // Profiles in CSR form: node v's run is profile_syms_[profile_offsets_[v]
  // .. profile_offsets_[v + 1]). All three are empty without profiles.
  std::vector<uint32_t> profile_offsets_;
  std::vector<SymbolId> profile_syms_;
  std::vector<uint64_t> profile_sigs_;
  // Neighborhoods in the same form: node v's members are nbh_members_[
  // nbh_offsets_[v] .. nbh_offsets_[v + 1]), and nbh_edges_[v] counts the
  // edges among them. All three are empty without neighborhoods.
  std::vector<uint32_t> nbh_offsets_;
  std::vector<NodeId> nbh_members_;
  std::vector<uint32_t> nbh_edges_;
  std::unordered_map<uint64_t, size_t> edge_pair_freq_;
  std::unordered_map<std::string, rel::BPlusTree> attr_trees_;
  std::vector<NodeId> empty_;
};

}  // namespace graphql::match

#endif  // GRAPHQL_MATCH_LABEL_INDEX_H_
