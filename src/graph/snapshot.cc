#include "graph/snapshot.h"

#include <algorithm>
#include <chrono>

namespace graphql {

namespace {

SymbolId InternOrNone(std::string_view s) {
  return s.empty() ? kNoSymbol : SymbolTable::Global().Intern(s);
}

size_t ValueHeapBytes(const Value& v) {
  return v.is_string() ? v.AsString().size() : 0;
}

}  // namespace

size_t GraphSnapshot::Column::Position(int32_t id) const {
  const size_t n = ids.size();
  // Ids are strictly ascending and non-negative, so a column whose last id
  // is n - 1 holds exactly 0..n-1 and the id is its own position.
  if (n != 0 && ids[n - 1] == static_cast<int32_t>(n - 1)) {
    return id >= 0 && static_cast<size_t>(id) < n ? static_cast<size_t>(id)
                                                  : n;
  }
  auto it = std::lower_bound(ids.begin(), ids.end(), id);
  return it != ids.end() && *it == id ? static_cast<size_t>(it - ids.begin())
                                      : n;
}

const Value* GraphSnapshot::Column::Find(int32_t id) const {
  const size_t i = Position(id);
  return i < ids.size() ? &values[i] : nullptr;
}

SymbolId GraphSnapshot::Column::FindValSym(int32_t id) const {
  const size_t i = Position(id);
  return i < ids.size() ? val_syms[i] : kNoSymbol;
}

GraphSnapshot::GraphSnapshot(const Graph& g) {
  auto t0 = std::chrono::steady_clock::now();
  SymbolTable& syms = SymbolTable::Global();

  directed_ = g.directed();
  num_nodes_ = g.NumNodes();
  source_version_ = g.version();
  const size_t n = num_nodes_;
  const size_t m = g.NumEdges();

  graph_name_sym_ = InternOrNone(g.name());
  graph_tag_sym_ = InternOrNone(g.attrs().tag());

  // ---- Per-node interned strings + node columns ----
  own_node_name_sym_.resize(n);
  own_node_tag_sym_.resize(n);
  own_node_label_sym_.assign(n, kNoSymbol);
  for (size_t v = 0; v < n; ++v) {
    const Graph::Node& node = g.node(static_cast<NodeId>(v));
    own_node_name_sym_[v] = InternOrNone(node.name);
    own_node_tag_sym_[v] = InternOrNone(node.attrs.tag());
    for (const auto& [k, val] : node.attrs.attrs()) {
      SymbolId attr_sym = syms.Intern(k);
      Column* col = nullptr;
      for (Column& c : node_columns_) {
        if (c.attr_sym == attr_sym) {
          col = &c;
          break;
        }
      }
      if (col == nullptr) {
        node_columns_.emplace_back();
        col = &node_columns_.back();
        col->attr_sym = attr_sym;
      }
      SymbolId val_sym =
          val.is_string() ? syms.Intern(val.AsString()) : kNoSymbol;
      col->own_ids.push_back(static_cast<int32_t>(v));
      col->values.push_back(val);
      col->own_val_syms.push_back(val_sym);
      if (k == "label" && val.is_string()) {
        if (own_node_label_sym_[v] == kNoSymbol) {
          own_node_label_sym_[v] = val_sym;
          if (std::find(labels_in_order_.begin(), labels_in_order_.end(),
                        val_sym) == labels_in_order_.end()) {
            labels_in_order_.push_back(val_sym);
          }
        }
      }
    }
  }

  // ---- Per-edge interned strings + edge columns ----
  own_edge_name_sym_.resize(m);
  own_edge_tag_sym_.resize(m);
  own_edge_src_.resize(m);
  own_edge_dst_.resize(m);
  for (size_t e = 0; e < m; ++e) {
    const Graph::Edge& edge = g.edge(static_cast<EdgeId>(e));
    own_edge_name_sym_[e] = InternOrNone(edge.name);
    own_edge_tag_sym_[e] = InternOrNone(edge.attrs.tag());
    own_edge_src_[e] = edge.src;
    own_edge_dst_[e] = edge.dst;
    for (const auto& [k, val] : edge.attrs.attrs()) {
      SymbolId attr_sym = syms.Intern(k);
      Column* col = nullptr;
      for (Column& c : edge_columns_) {
        if (c.attr_sym == attr_sym) {
          col = &c;
          break;
        }
      }
      if (col == nullptr) {
        edge_columns_.emplace_back();
        col = &edge_columns_.back();
        col->attr_sym = attr_sym;
      }
      col->own_ids.push_back(static_cast<int32_t>(e));
      col->values.push_back(val);
      col->own_val_syms.push_back(
          val.is_string() ? syms.Intern(val.AsString()) : kNoSymbol);
    }
  }

  // ---- CSR adjacency ----
  // Replicates the builder's adjacency-list construction (one entry per
  // incident edge per endpoint; directed graphs get a separate in-list),
  // then sorts each node's run by neighbor. The sort is stable on the
  // fill order, which is edge-id order, so parallel edges stay in
  // ascending edge-id order within a run and FindFirstEdge returns the
  // same edge as the builder's first-match scan.
  std::vector<uint32_t> out_deg(n + 1, 0);
  std::vector<uint32_t> in_deg(directed_ ? n + 1 : 0, 0);
  for (size_t e = 0; e < m; ++e) {
    NodeId src = own_edge_src_[e], dst = own_edge_dst_[e];
    ++out_deg[src + 1];
    if (directed_) {
      ++in_deg[dst + 1];
    } else if (src != dst) {
      ++out_deg[dst + 1];
    }
  }
  own_out_offsets_.assign(n + 1, 0);
  for (size_t v = 0; v < n; ++v) {
    own_out_offsets_[v + 1] = own_out_offsets_[v] + out_deg[v + 1];
  }
  own_out_entries_.resize(own_out_offsets_[n]);
  std::vector<uint32_t> fill(own_out_offsets_.begin(),
                             own_out_offsets_.end() - 1);
  if (directed_) {
    own_in_offsets_.assign(n + 1, 0);
    for (size_t v = 0; v < n; ++v) {
      own_in_offsets_[v + 1] = own_in_offsets_[v] + in_deg[v + 1];
    }
    own_in_entries_.resize(own_in_offsets_[n]);
  }
  std::vector<uint32_t> in_fill(own_in_offsets_.begin(),
                                own_in_offsets_.empty()
                                    ? own_in_offsets_.begin()
                                    : own_in_offsets_.end() - 1);
  for (size_t e = 0; e < m; ++e) {
    NodeId src = own_edge_src_[e], dst = own_edge_dst_[e];
    EdgeId id = static_cast<EdgeId>(e);
    SymbolId tag = own_edge_tag_sym_[e];
    own_out_entries_[fill[src]++] = AdjEntry{dst, id, tag};
    if (directed_) {
      own_in_entries_[in_fill[dst]++] = AdjEntry{src, id, tag};
    } else if (src != dst) {
      own_out_entries_[fill[dst]++] = AdjEntry{src, id, tag};
    }
  }
  auto by_neighbor = [](const AdjEntry& a, const AdjEntry& b) {
    return a.node < b.node;
  };
  for (size_t v = 0; v < n; ++v) {
    std::stable_sort(own_out_entries_.begin() + own_out_offsets_[v],
                     own_out_entries_.begin() + own_out_offsets_[v + 1],
                     by_neighbor);
    if (directed_) {
      std::stable_sort(own_in_entries_.begin() + own_in_offsets_[v],
                       own_in_entries_.begin() + own_in_offsets_[v + 1],
                       by_neighbor);
    }
  }

  // The CSR arrays are final; bind their read views so out()/in() work
  // for the unique-neighbor pass below.
  out_offsets_ = own_out_offsets_;
  out_entries_ = own_out_entries_;
  in_offsets_ = own_in_offsets_;
  in_entries_ = own_in_entries_;

  // ---- Unique-neighbor CSR (out ∪ in, sorted, deduplicated) ----
  own_uniq_offsets_.assign(n + 1, 0);
  std::vector<NodeId> scratch;
  for (size_t v = 0; v < n; ++v) {
    scratch.clear();
    for (const AdjEntry& a : out(static_cast<NodeId>(v))) {
      scratch.push_back(a.node);
    }
    if (directed_) {
      for (const AdjEntry& a : in(static_cast<NodeId>(v))) {
        scratch.push_back(a.node);
      }
      std::sort(scratch.begin(), scratch.end());
    }
    scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
    own_uniq_offsets_[v + 1] = own_uniq_offsets_[v] + scratch.size();
    own_uniq_nbrs_.insert(own_uniq_nbrs_.end(), scratch.begin(),
                          scratch.end());
  }

  BindOwnedSpans();
  ComputeByteAccounting();

  auto t1 = std::chrono::steady_clock::now();
  build_micros_ =
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count();
}

GraphSnapshot::GraphSnapshot(MappedParts parts) {
  directed_ = parts.directed;
  num_nodes_ = parts.num_nodes;
  source_version_ = parts.source_version;
  graph_name_sym_ = parts.graph_name_sym;
  graph_tag_sym_ = parts.graph_tag_sym;
  node_name_sym_ = parts.node_name_sym;
  node_tag_sym_ = parts.node_tag_sym;
  node_label_sym_ = parts.node_label_sym;
  labels_in_order_ = std::move(parts.labels_in_order);
  edge_name_sym_ = parts.edge_name_sym;
  edge_tag_sym_ = parts.edge_tag_sym;
  edge_src_ = parts.edge_src;
  edge_dst_ = parts.edge_dst;
  out_offsets_ = parts.out_offsets;
  out_entries_ = parts.out_entries;
  in_offsets_ = parts.in_offsets;
  in_entries_ = parts.in_entries;
  uniq_offsets_ = parts.uniq_offsets;
  uniq_nbrs_ = parts.uniq_nbrs;
  node_columns_ = std::move(parts.node_columns);
  edge_columns_ = std::move(parts.edge_columns);
  mapped_bytes_ = parts.mapped_bytes;
  backing_ = std::move(parts.backing);
  ComputeByteAccounting();
}

void GraphSnapshot::BindOwnedSpans() {
  node_name_sym_ = own_node_name_sym_;
  node_tag_sym_ = own_node_tag_sym_;
  node_label_sym_ = own_node_label_sym_;
  edge_name_sym_ = own_edge_name_sym_;
  edge_tag_sym_ = own_edge_tag_sym_;
  edge_src_ = own_edge_src_;
  edge_dst_ = own_edge_dst_;
  out_offsets_ = own_out_offsets_;
  out_entries_ = own_out_entries_;
  in_offsets_ = own_in_offsets_;
  in_entries_ = own_in_entries_;
  uniq_offsets_ = own_uniq_offsets_;
  uniq_nbrs_ = own_uniq_nbrs_;
  for (Column& c : node_columns_) c.BindOwned();
  for (Column& c : edge_columns_) c.BindOwned();
}

void GraphSnapshot::ComputeByteAccounting() {
  csr_bytes_ = out_entries_.size() * sizeof(AdjEntry) +
               in_entries_.size() * sizeof(AdjEntry) +
               (out_offsets_.size() + in_offsets_.size() +
                uniq_offsets_.size()) * sizeof(uint32_t) +
               uniq_nbrs_.size() * sizeof(NodeId);
  column_bytes_ = 0;
  for (const auto* cols : {&node_columns_, &edge_columns_}) {
    for (const Column& c : *cols) {
      column_bytes_ += c.ids.size() * sizeof(int32_t) +
                       c.values.size() * sizeof(Value) +
                       c.val_syms.size() * sizeof(SymbolId);
      for (const Value& v : c.values) column_bytes_ += ValueHeapBytes(v);
    }
  }
  sym_bytes_ = (node_name_sym_.size() + node_tag_sym_.size() +
                node_label_sym_.size() + labels_in_order_.size() +
                edge_name_sym_.size() + edge_tag_sym_.size()) *
                   sizeof(SymbolId) +
               (edge_src_.size() + edge_dst_.size()) * sizeof(NodeId);
}

bool GraphSnapshot::HasEdgeBetween(NodeId u, NodeId v) const {
  std::span<const AdjEntry> run = out(u);
  auto it = std::lower_bound(
      run.begin(), run.end(), v,
      [](const AdjEntry& a, NodeId node) { return a.node < node; });
  return it != run.end() && it->node == v;
}

std::span<const GraphSnapshot::AdjEntry> GraphSnapshot::EdgesBetween(
    NodeId u, NodeId v) const {
  std::span<const AdjEntry> run = out(u);
  auto cmp_lo = [](const AdjEntry& a, NodeId node) { return a.node < node; };
  auto cmp_hi = [](NodeId node, const AdjEntry& a) { return node < a.node; };
  auto lo = std::lower_bound(run.begin(), run.end(), v, cmp_lo);
  auto hi = std::upper_bound(lo, run.end(), v, cmp_hi);
  return {lo, hi};
}

EdgeId GraphSnapshot::FindFirstEdge(NodeId u, NodeId v) const {
  std::span<const AdjEntry> run = EdgesBetween(u, v);
  return run.empty() ? kInvalidEdge : run.front().edge;
}

const GraphSnapshot::Column* GraphSnapshot::NodeColumn(
    SymbolId attr_sym) const {
  for (const Column& c : node_columns_) {
    if (c.attr_sym == attr_sym) return &c;
  }
  return nullptr;
}

const GraphSnapshot::Column* GraphSnapshot::EdgeColumn(
    SymbolId attr_sym) const {
  for (const Column& c : edge_columns_) {
    if (c.attr_sym == attr_sym) return &c;
  }
  return nullptr;
}

}  // namespace graphql
