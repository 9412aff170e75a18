#include "match/label_index.h"

#include <algorithm>

namespace graphql::match {

namespace {

uint64_t PairKey(SymbolId a, SymbolId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint32_t>(b);
}

}  // namespace

LabelIndex LabelIndex::Build(const Graph& g, LabelIndexOptions options) {
  std::shared_ptr<const GraphSnapshot> snap = g.snapshot();
  LabelIndex index(*snap, std::move(options));
  index.pin_ = std::move(snap);
  return index;
}

std::shared_ptr<const LabelIndex> LabelIndex::Shared(const Graph& g,
                                                     bool with_neighborhoods,
                                                     bool* built) {
  // Fetched before the slot's lock is taken, so Graph::snap_mu_ and the
  // slot's lock never nest.
  std::shared_ptr<const GraphSnapshot> snap = g.snapshot();
  const void* cached =
      snap->Derived(with_neighborhoods ? 1 : 0,
                    [&]() -> std::shared_ptr<const void> {
                      LabelIndexOptions options;
                      options.build_neighborhoods = with_neighborhoods;
                      return std::shared_ptr<const LabelIndex>(
                          new LabelIndex(*snap, std::move(options)));
                    },
                    built);
  // Aliasing: the handle owns the snapshot, which owns the index.
  return std::shared_ptr<const LabelIndex>(
      std::move(snap), static_cast<const LabelIndex*>(cached));
}

LabelIndex::LabelIndex(const GraphSnapshot& snap, LabelIndexOptions options)
    : snap_(&snap), options_(std::move(options)) {
  const size_t n = snap.num_nodes();

  for (size_t v = 0; v < n; ++v) {
    SymbolId label = snap.node_label_sym(static_cast<NodeId>(v));
    if (label == kNoSymbol) {
      unlabeled_.push_back(static_cast<NodeId>(v));
      continue;
    }
    by_label_[label].push_back(static_cast<NodeId>(v));
  }

  for (size_t e = 0; e < snap.num_edges(); ++e) {
    SymbolId a = snap.node_label_sym(snap.edge_src(static_cast<EdgeId>(e)));
    SymbolId b = snap.node_label_sym(snap.edge_dst(static_cast<EdgeId>(e)));
    if (a == kNoSymbol || b == kNoSymbol) continue;
    ++edge_pair_freq_[PairKey(a, b)];
  }

  // One walk per node fills both its profile run and its neighborhood run.
  const bool profiles = options_.build_profiles && n > 0;
  const bool neighborhoods = options_.build_neighborhoods && n > 0;
  if (profiles) {
    profile_offsets_.reserve(n + 1);
    profile_offsets_.push_back(0);
    profile_sigs_.reserve(n);
  }
  if (neighborhoods) {
    nbh_offsets_.reserve(n + 1);
    nbh_offsets_.push_back(0);
    nbh_edges_.reserve(n);
  }
  if (profiles || neighborhoods) {
    NeighborhoodWalker walker(snap);
    for (size_t v = 0; v < n; ++v) {
      std::span<const NodeId> members =
          walker.Walk(static_cast<NodeId>(v), options_.radius);
      if (profiles) {
        const size_t begin = profile_syms_.size();
        AppendProfile(snap, members, &profile_syms_);
        profile_offsets_.push_back(static_cast<uint32_t>(profile_syms_.size()));
        profile_sigs_.push_back(ProfileSignature(
            std::span<const SymbolId>(profile_syms_).subspan(begin)));
      }
      if (neighborhoods) {
        nbh_members_.insert(nbh_members_.end(), members.begin(),
                            members.end());
        nbh_offsets_.push_back(static_cast<uint32_t>(nbh_members_.size()));
        nbh_edges_.push_back(static_cast<uint32_t>(walker.InducedEdges()));
      }
    }
  }
  for (const std::string& attr : options_.indexed_attributes) {
    rel::BPlusTree tree;
    // Column entries are in ascending node-id order — the same insertion
    // order as a node scan, so tree iteration order is unchanged.
    SymbolId attr_sym = SymbolTable::Global().Lookup(attr);
    const GraphSnapshot::Column* col =
        attr_sym == kNoSymbol ? nullptr : snap.NodeColumn(attr_sym);
    if (col != nullptr) {
      for (size_t i = 0; i < col->ids.size(); ++i) {
        tree.Insert(col->values[i], static_cast<uint64_t>(col->ids[i]));
      }
    }
    attr_trees_.emplace(attr, std::move(tree));
  }
}

std::string_view LabelIndex::LabelName(SymbolId label) const {
  return SymbolTable::Global().Name(label);
}

SymbolId LabelIndex::LabelSym(std::string_view label) const {
  return SymbolTable::Global().Lookup(label);
}

const std::vector<NodeId>& LabelIndex::NodesWithLabelSym(
    SymbolId label) const {
  auto it = by_label_.find(label);
  return it == by_label_.end() ? empty_ : it->second;
}

const std::vector<NodeId>& LabelIndex::NodesWithLabel(
    std::string_view label) const {
  SymbolId id = SymbolTable::Global().Lookup(label);
  return id == kNoSymbol ? empty_ : NodesWithLabelSym(id);
}

size_t LabelIndex::LabelFrequency(SymbolId label) const {
  auto it = by_label_.find(label);
  return it == by_label_.end() ? 0 : it->second.size();
}

size_t LabelIndex::LabelFrequency(std::string_view label) const {
  SymbolId id = SymbolTable::Global().Lookup(label);
  return id == kNoSymbol ? 0 : LabelFrequency(id);
}

size_t LabelIndex::EdgePairFrequency(SymbolId a, SymbolId b) const {
  auto it = edge_pair_freq_.find(PairKey(a, b));
  return it == edge_pair_freq_.end() ? 0 : it->second;
}

double LabelIndex::EdgeProbability(SymbolId a, SymbolId b,
                                   double fallback) const {
  size_t fa = LabelFrequency(a);
  size_t fb = LabelFrequency(b);
  if (fa == 0 || fb == 0) return fallback;
  size_t fe = EdgePairFrequency(a, b);
  double p = static_cast<double>(fe) /
             (static_cast<double>(fa) * static_cast<double>(fb));
  return std::min(1.0, p);
}

bool LabelIndex::HasAttributeIndex(std::string_view attr) const {
  return attr_trees_.count(std::string(attr)) > 0;
}

std::vector<NodeId> LabelIndex::AttrExact(std::string_view attr,
                                          const Value& v) const {
  auto it = attr_trees_.find(std::string(attr));
  if (it == attr_trees_.end()) return {};
  std::vector<uint64_t> raw = it->second.Lookup(v);
  return std::vector<NodeId>(raw.begin(), raw.end());
}

std::vector<NodeId> LabelIndex::AttrRange(std::string_view attr,
                                          const Value* lo, bool lo_inclusive,
                                          const Value* hi,
                                          bool hi_inclusive) const {
  auto it = attr_trees_.find(std::string(attr));
  if (it == attr_trees_.end()) return {};
  std::vector<uint64_t> raw =
      it->second.Range(lo, lo_inclusive, hi, hi_inclusive);
  return std::vector<NodeId>(raw.begin(), raw.end());
}

std::vector<SymbolId> LabelIndex::LabelsByFrequency() const {
  // First-appearance order from the snapshot, stably re-sorted by
  // frequency: identical tie-breaking to the historical per-graph
  // dictionary (whose ids were assigned in first-appearance order), and
  // independent of what else the process has interned.
  std::vector<SymbolId> labels = snap_->labels_in_order();
  std::stable_sort(labels.begin(), labels.end(), [&](SymbolId a, SymbolId b) {
    return LabelFrequency(a) > LabelFrequency(b);
  });
  return labels;
}

}  // namespace graphql::match
