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
  /// Store per-node profiles (cheap: one flat array of label symbols for
  /// the whole graph, plus one 64-bit signature per node).
  bool build_profiles = true;
  /// Store per-node neighborhood subgraphs (heavier; needed only for
  /// retrieve-by-subgraphs).
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
/// agrees on what id a label has. The index is built from the graph's
/// compiled snapshot and keeps it alive; B+-trees for indexed attributes
/// are loaded straight from the snapshot's columns.
class LabelIndex {
 public:
  /// Builds the index in one pass over `g`'s snapshot. The graph must
  /// outlive the index (neighborhood extraction and statistics reference
  /// it).
  static LabelIndex Build(const Graph& g, LabelIndexOptions options = {});

  const Graph& graph() const { return *graph_; }
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
  bool has_neighborhoods() const { return !neighborhoods_.empty(); }
  /// Node v's profile, sorted (a view into one CSR array).
  std::span<const SymbolId> profile(NodeId v) const {
    return {profile_syms_.data() + profile_offsets_[v],
            profile_syms_.data() + profile_offsets_[v + 1]};
  }
  /// ProfileSignature(profile(v)), precomputed.
  uint64_t profile_signature(NodeId v) const { return profile_sigs_[v]; }
  const NeighborhoodSubgraph& neighborhood(NodeId v) const {
    return neighborhoods_[v];
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
  const Graph* graph_ = nullptr;
  std::shared_ptr<const GraphSnapshot> snap_;
  LabelIndexOptions options_;
  std::unordered_map<SymbolId, std::vector<NodeId>> by_label_;
  std::vector<NodeId> unlabeled_;
  // Profiles in CSR form: node v's run is profile_syms_[profile_offsets_[v]
  // .. profile_offsets_[v + 1]). All three are empty without profiles.
  std::vector<uint32_t> profile_offsets_;
  std::vector<SymbolId> profile_syms_;
  std::vector<uint64_t> profile_sigs_;
  std::vector<NeighborhoodSubgraph> neighborhoods_;
  std::unordered_map<uint64_t, size_t> edge_pair_freq_;
  std::unordered_map<std::string, rel::BPlusTree> attr_trees_;
  std::vector<NodeId> empty_;
};

}  // namespace graphql::match

#endif  // GRAPHQL_MATCH_LABEL_INDEX_H_
