#ifndef GRAPHQL_GRAPH_SNAPSHOT_H_
#define GRAPHQL_GRAPH_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/symbols.h"
#include "common/value.h"
#include "graph/graph.h"

namespace graphql {

/// An immutable, cache-friendly compiled form of one Graph: every string
/// (tag, attribute name, variable name, string attribute value, node
/// label) interned to a dense SymbolId through the process-wide
/// SymbolTable; adjacency in CSR form (offset array plus packed
/// {neighbor, edge, tag_sym} triples, separate in/out arrays for directed
/// graphs); attributes stored columnarly, one column per attribute symbol
/// keyed by node/edge id.
///
/// The snapshot is a pure read model: it is built once from a Graph (the
/// mutable builder) and never mutated afterwards, so concurrent readers
/// need no synchronization. Accessors are defined to agree exactly with
/// the builder API they mirror — same edge found by FindFirstEdge as
/// Graph::FindEdge, same multiset of adjacency entries as
/// Graph::neighbors — so the selection pipeline produces bit-identical
/// results on either representation.
///
/// Storage: every array is accessed through a std::span. A snapshot built
/// from a Graph owns its arrays (the spans view the `own_*` vectors); a
/// snapshot opened from a format-v3 paged file views checksummed mapped
/// pages directly (zero-copy — see io/snapshot_v3.h) and holds the
/// mapping alive through `backing_`. The two modes are indistinguishable
/// to readers.
class GraphSnapshot {
 public:
  /// One CSR adjacency entry. Entries for a node are sorted by `node`
  /// (stable on insertion order, i.e. edge id) so parallel edges between
  /// the same endpoints form a contiguous run in ascending edge-id order.
  struct AdjEntry {
    NodeId node;        ///< Neighbor node id.
    EdgeId edge;        ///< Edge realizing the adjacency.
    SymbolId tag_sym;   ///< Interned edge tag; kNoSymbol when untagged.
  };
  static_assert(sizeof(AdjEntry) == 12,
                "AdjEntry is a POD written verbatim into snapshot files");

  /// A sparse attribute column: the ids (node or edge, strictly
  /// ascending) that carry the attribute, the stored values, and for
  /// string values their interned symbol (kNoSymbol for non-strings).
  /// `ids`/`val_syms` may view mapped pages; `values` is always
  /// materialized (a Value owns its string payload and cannot view raw
  /// bytes).
  struct Column {
    SymbolId attr_sym = kNoSymbol;  ///< Interned attribute name.
    std::span<const int32_t> ids;
    std::vector<Value> values;
    std::span<const SymbolId> val_syms;

    /// Owned backing for `ids`/`val_syms` (empty in mapped mode). Bound
    /// by BindOwned after building completes (vector growth would move
    /// the data the spans point at).
    std::vector<int32_t> own_ids;
    std::vector<SymbolId> own_val_syms;
    void BindOwned() {
      ids = own_ids;
      val_syms = own_val_syms;
    }

    /// The value stored for `id`, or nullptr when the column misses it.
    /// O(1) on a dense column (every id 0..size-1 present), a binary
    /// search otherwise.
    const Value* Find(int32_t id) const;
    /// The interned string value for `id`; kNoSymbol when absent or not
    /// a string. Same lookup as Find.
    SymbolId FindValSym(int32_t id) const;

   private:
    /// Index of `id` in `ids`, or ids.size() when the column misses it.
    size_t Position(int32_t id) const;
  };

  /// All parts of a snapshot opened from mapped storage. Array spans view
  /// pages owned by `backing` (verified by the pager before they were
  /// handed out); the io layer fills this and the constructor below
  /// adopts it wholesale. Invariants (CSR sorted by neighbor, column ids
  /// ascending, labels in first-appearance order) are the writer's
  /// responsibility — the file stores exactly what a Graph-built snapshot
  /// contained.
  struct MappedParts {
    bool directed = false;
    size_t num_nodes = 0;
    uint64_t source_version = 0;
    SymbolId graph_name_sym = kNoSymbol;
    SymbolId graph_tag_sym = kNoSymbol;
    std::span<const SymbolId> node_name_sym;
    std::span<const SymbolId> node_tag_sym;
    std::span<const SymbolId> node_label_sym;
    std::vector<SymbolId> labels_in_order;
    std::span<const SymbolId> edge_name_sym;
    std::span<const SymbolId> edge_tag_sym;
    std::span<const NodeId> edge_src;
    std::span<const NodeId> edge_dst;
    std::span<const uint32_t> out_offsets;
    std::span<const AdjEntry> out_entries;
    std::span<const uint32_t> in_offsets;
    std::span<const AdjEntry> in_entries;
    std::span<const uint32_t> uniq_offsets;
    std::span<const NodeId> uniq_nbrs;
    std::vector<Column> node_columns;
    std::vector<Column> edge_columns;
    size_t mapped_bytes = 0;  ///< Bytes of mapped pages this graph views.
    std::shared_ptr<const void> backing;  ///< Keeps the mapping alive.
  };

  /// Compiles `g`. The graph must not be mutated while the build runs.
  explicit GraphSnapshot(const Graph& g);

  /// Adopts views over mapped storage (zero-copy open path).
  explicit GraphSnapshot(MappedParts parts);

  GraphSnapshot(const GraphSnapshot&) = delete;
  GraphSnapshot& operator=(const GraphSnapshot&) = delete;

  // ---- Shape ----

  bool directed() const { return directed_; }
  size_t num_nodes() const { return num_nodes_; }
  size_t num_edges() const { return edge_src_.size(); }

  // ---- Interned per-entity strings ----

  SymbolId graph_name_sym() const { return graph_name_sym_; }
  SymbolId graph_tag_sym() const { return graph_tag_sym_; }
  SymbolId node_name_sym(NodeId v) const { return node_name_sym_[v]; }
  SymbolId node_tag_sym(NodeId v) const { return node_tag_sym_[v]; }
  /// Interned "label" string attribute (the paper's conventional node
  /// label); kNoSymbol when absent or non-string.
  SymbolId node_label_sym(NodeId v) const { return node_label_sym_[v]; }
  SymbolId edge_name_sym(EdgeId e) const { return edge_name_sym_[e]; }
  SymbolId edge_tag_sym(EdgeId e) const { return edge_tag_sym_[e]; }
  NodeId edge_src(EdgeId e) const { return edge_src_[e]; }
  NodeId edge_dst(EdgeId e) const { return edge_dst_[e]; }

  /// Distinct node label symbols in first-appearance (node id) order.
  /// Consumers that need a deterministic label order independent of
  /// global interning history (e.g. frequency tie-breaking in the label
  /// index) iterate this.
  const std::vector<SymbolId>& labels_in_order() const {
    return labels_in_order_;
  }

  // ---- CSR adjacency ----

  /// Same entry multiset as Graph::neighbors(v) (undirected graphs list
  /// every incident edge once per endpoint; directed list out-edges),
  /// but sorted by neighbor id, ties in edge-id order.
  std::span<const AdjEntry> out(NodeId v) const {
    return {out_entries_.data() + out_offsets_[v],
            out_entries_.data() + out_offsets_[v + 1]};
  }

  /// Incoming adjacency; only populated for directed graphs.
  std::span<const AdjEntry> in(NodeId v) const {
    if (!directed_) return {};
    return {in_entries_.data() + in_offsets_[v],
            in_entries_.data() + in_offsets_[v + 1]};
  }

  size_t Degree(NodeId v) const {
    return out_offsets_[v + 1] - out_offsets_[v];
  }

  /// Sorted, duplicate-free neighbor set of v over edges in either
  /// direction — exactly the set match::UniqueNeighbors computes from the
  /// builder graph, precomputed once.
  std::span<const NodeId> unique_neighbors(NodeId v) const {
    return {uniq_nbrs_.data() + uniq_offsets_[v],
            uniq_nbrs_.data() + uniq_offsets_[v + 1]};
  }

  /// True iff some edge connects u to v (respecting direction when
  /// directed) — agrees with Graph::HasEdgeBetween.
  bool HasEdgeBetween(NodeId u, NodeId v) const;

  /// The contiguous run of adjacency entries from u to v (empty when no
  /// such edge). Entries appear in ascending edge-id order.
  std::span<const AdjEntry> EdgesBetween(NodeId u, NodeId v) const;

  /// Lowest-id edge connecting u to v, or kInvalidEdge — agrees with
  /// Graph::FindEdge (whose adjacency-list scan also finds the
  /// earliest-added edge).
  EdgeId FindFirstEdge(NodeId u, NodeId v) const;

  // ---- Columnar attributes ----

  const std::vector<Column>& node_columns() const { return node_columns_; }
  const std::vector<Column>& edge_columns() const { return edge_columns_; }
  /// The node column for an attribute symbol, or nullptr.
  const Column* NodeColumn(SymbolId attr_sym) const;
  /// The edge column for an attribute symbol, or nullptr.
  const Column* EdgeColumn(SymbolId attr_sym) const;

  // ---- Raw array views (storage serialization; also useful in tests) ----

  std::span<const SymbolId> raw_node_name_syms() const {
    return node_name_sym_;
  }
  std::span<const SymbolId> raw_node_tag_syms() const {
    return node_tag_sym_;
  }
  std::span<const SymbolId> raw_node_label_syms() const {
    return node_label_sym_;
  }
  std::span<const SymbolId> raw_edge_name_syms() const {
    return edge_name_sym_;
  }
  std::span<const SymbolId> raw_edge_tag_syms() const {
    return edge_tag_sym_;
  }
  std::span<const NodeId> raw_edge_src() const { return edge_src_; }
  std::span<const NodeId> raw_edge_dst() const { return edge_dst_; }
  std::span<const uint32_t> raw_out_offsets() const { return out_offsets_; }
  std::span<const AdjEntry> raw_out_entries() const { return out_entries_; }
  std::span<const uint32_t> raw_in_offsets() const { return in_offsets_; }
  std::span<const AdjEntry> raw_in_entries() const { return in_entries_; }
  std::span<const uint32_t> raw_uniq_offsets() const { return uniq_offsets_; }
  std::span<const NodeId> raw_uniq_nbrs() const { return uniq_nbrs_; }

  // ---- Cost accounting ----

  /// Bytes held by the snapshot (heap in owned mode, mapped pages plus
  /// materialized values in mapped mode), split so :stats can report the
  /// breakdown. `bytes()` is what the governor reserves for a fresh
  /// build.
  size_t bytes() const { return csr_bytes_ + column_bytes_ + sym_bytes_; }
  size_t csr_bytes() const { return csr_bytes_; }
  size_t column_bytes() const { return column_bytes_; }
  size_t sym_bytes() const { return sym_bytes_; }
  /// Bytes of mapped file pages this snapshot views (0 when built from a
  /// Graph). Counted by the server's resident-memory accounting.
  size_t mapped_bytes() const { return mapped_bytes_; }
  /// True when the arrays view mapped storage instead of owned heap.
  bool is_mapped() const { return backing_ != nullptr; }
  /// Wall-clock build time in microseconds (0 for mapped opens).
  int64_t build_micros() const { return build_micros_; }
  /// Graph::version() at build time; the cache compares this to decide
  /// staleness.
  uint64_t source_version() const { return source_version_; }

 private:
  /// Points every span member at its own_* vector and computes the byte
  /// accounting (owned mode).
  void BindOwnedSpans();
  void ComputeByteAccounting();

  bool directed_ = false;
  size_t num_nodes_ = 0;
  uint64_t source_version_ = 0;

  SymbolId graph_name_sym_ = kNoSymbol;
  SymbolId graph_tag_sym_ = kNoSymbol;

  // Read views: all accessors go through these. Either they point at the
  // own_* twins below (owned mode) or at mapped pages (mapped mode).
  std::span<const SymbolId> node_name_sym_;
  std::span<const SymbolId> node_tag_sym_;
  std::span<const SymbolId> node_label_sym_;
  std::span<const SymbolId> edge_name_sym_;
  std::span<const SymbolId> edge_tag_sym_;
  std::span<const NodeId> edge_src_;
  std::span<const NodeId> edge_dst_;
  std::span<const uint32_t> out_offsets_;
  std::span<const AdjEntry> out_entries_;
  std::span<const uint32_t> in_offsets_;   // Directed graphs only.
  std::span<const AdjEntry> in_entries_;   // Directed graphs only.
  std::span<const uint32_t> uniq_offsets_;
  std::span<const NodeId> uniq_nbrs_;

  // Owned backing (owned mode only).
  std::vector<SymbolId> own_node_name_sym_;
  std::vector<SymbolId> own_node_tag_sym_;
  std::vector<SymbolId> own_node_label_sym_;
  std::vector<SymbolId> own_edge_name_sym_;
  std::vector<SymbolId> own_edge_tag_sym_;
  std::vector<NodeId> own_edge_src_;
  std::vector<NodeId> own_edge_dst_;
  std::vector<uint32_t> own_out_offsets_;
  std::vector<AdjEntry> own_out_entries_;
  std::vector<uint32_t> own_in_offsets_;
  std::vector<AdjEntry> own_in_entries_;
  std::vector<uint32_t> own_uniq_offsets_;
  std::vector<NodeId> own_uniq_nbrs_;

  std::vector<SymbolId> labels_in_order_;  // Small; owned in both modes.
  std::vector<Column> node_columns_;
  std::vector<Column> edge_columns_;

  size_t csr_bytes_ = 0;
  size_t column_bytes_ = 0;
  size_t sym_bytes_ = 0;
  size_t mapped_bytes_ = 0;
  int64_t build_micros_ = 0;
  /// Keeps the mapped file alive for the snapshot's lifetime (mapped
  /// mode). Type-erased so graph/ does not depend on storage/.
  std::shared_ptr<const void> backing_;
};

}  // namespace graphql

#endif  // GRAPHQL_GRAPH_SNAPSHOT_H_
