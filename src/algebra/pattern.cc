#include "algebra/pattern.h"

#include <algorithm>
#include <unordered_set>

#include "common/strings.h"
#include "graph/snapshot.h"
#include "lang/parser.h"

namespace graphql::algebra {

Result<GraphPattern> GraphPattern::Create(const lang::GraphDecl& decl,
                                          const motif::MotifRegistry* registry,
                                          motif::BuildOptions options) {
  GQL_ASSIGN_OR_RETURN(std::vector<GraphPattern> all,
                       CreateAll(decl, registry, options));
  if (all.size() != 1) {
    return Status::InvalidArgument(
        "pattern '" + decl.name + "' derives " + std::to_string(all.size()) +
        " motifs; use CreateAll for disjunctive or recursive patterns");
  }
  return std::move(all[0]);
}

Result<std::vector<GraphPattern>> GraphPattern::CreateAll(
    const lang::GraphDecl& decl, const motif::MotifRegistry* registry,
    motif::BuildOptions options) {
  options.tuples_as_attributes = true;
  motif::MotifBuilder builder(registry, options);
  GQL_ASSIGN_OR_RETURN(std::vector<motif::BuiltGraph> built, builder.Build(decl));
  std::vector<GraphPattern> out;
  out.reserve(built.size());
  for (motif::BuiltGraph& b : built) {
    GQL_ASSIGN_OR_RETURN(GraphPattern p,
                         Compile(decl.name, std::move(b), decl.where));
    out.push_back(std::move(p));
  }
  return out;
}

Result<GraphPattern> GraphPattern::Parse(std::string_view source,
                                         const motif::MotifRegistry* registry,
                                         motif::BuildOptions options) {
  GQL_ASSIGN_OR_RETURN(lang::GraphDecl decl, lang::Parser::ParseGraph(source));
  return Create(decl, registry, options);
}

GraphPattern GraphPattern::FromGraph(Graph motif) {
  GraphPattern p;
  p.name_ = motif.name();
  motif::BuiltGraph built;
  // Index node/edge names for reference resolution.
  for (size_t v = 0; v < motif.NumNodes(); ++v) {
    const auto& name = motif.node(static_cast<NodeId>(v)).name;
    if (!name.empty()) built.node_names[name] = static_cast<NodeId>(v);
  }
  for (size_t e = 0; e < motif.NumEdges(); ++e) {
    const auto& name = motif.edge(static_cast<EdgeId>(e)).name;
    if (!name.empty()) built.edge_names[name] = static_cast<EdgeId>(e);
  }
  built.node_wheres.resize(motif.NumNodes());
  built.edge_wheres.resize(motif.NumEdges());
  built.graph = std::move(motif);
  p.node_preds_.resize(built.graph.NumNodes());
  p.edge_preds_.resize(built.graph.NumEdges());
  p.scratch_mapping_.assign(built.graph.NumNodes(), kInvalidNode);
  p.scratch_edge_mapping_.assign(built.graph.NumEdges(), kInvalidEdge);
  p.built_ = std::move(built);
  p.InternSymbols();
  return p;
}

Result<GraphPattern> GraphPattern::Compile(std::string pattern_name,
                                           motif::BuiltGraph built,
                                           const lang::ExprPtr& where) {
  GraphPattern p;
  p.name_ = std::move(pattern_name);
  p.node_preds_.resize(built.graph.NumNodes());
  p.edge_preds_.resize(built.graph.NumEdges());
  for (size_t u = 0; u < built.node_wheres.size(); ++u) {
    for (const auto& w : built.node_wheres[u]) p.node_preds_[u].push_back(w);
  }
  for (size_t e = 0; e < built.edge_wheres.size(); ++e) {
    for (const auto& w : built.edge_wheres[e]) p.edge_preds_[e].push_back(w);
  }
  p.scratch_mapping_.assign(built.graph.NumNodes(), kInvalidNode);
  p.scratch_edge_mapping_.assign(built.graph.NumEdges(), kInvalidEdge);
  p.built_ = std::move(built);
  p.InternSymbols();

  std::vector<lang::ExprPtr> conjuncts;
  SplitConjuncts(where, &conjuncts);
  for (const lang::ExprPtr& c : conjuncts) p.RouteConjunct(c);
  return p;
}

void GraphPattern::InternSymbols() {
  SymbolTable& syms = SymbolTable::Global();
  const Graph& g = built_.graph;
  auto intern_tuple = [&syms](const AttrTuple& t, SymbolId* tag_sym,
                              std::vector<SymReq>* reqs) {
    *tag_sym = t.has_tag() ? syms.Intern(t.tag()) : kNoSymbol;
    reqs->reserve(t.attrs().size());
    for (const auto& [k, val] : t.attrs()) {
      reqs->push_back(SymReq{
          syms.Intern(k), val,
          val.is_string() ? syms.Intern(val.AsString()) : kNoSymbol});
    }
  };
  node_tag_syms_.resize(g.NumNodes());
  node_reqs_.resize(g.NumNodes());
  for (size_t u = 0; u < g.NumNodes(); ++u) {
    intern_tuple(g.node(static_cast<NodeId>(u)).attrs, &node_tag_syms_[u],
                 &node_reqs_[u]);
  }
  edge_tag_syms_.resize(g.NumEdges());
  edge_reqs_.resize(g.NumEdges());
  for (size_t e = 0; e < g.NumEdges(); ++e) {
    intern_tuple(g.edge(static_cast<EdgeId>(e)).attrs, &edge_tag_syms_[e],
                 &edge_reqs_[e]);
  }
}

void GraphPattern::RouteConjunct(const lang::ExprPtr& conjunct) {
  std::vector<std::vector<std::string>> paths;
  CollectNames(*conjunct, &paths);

  std::unordered_set<NodeId> nodes;
  std::unordered_set<EdgeId> edges;
  bool other = false;
  for (const auto& path : paths) {
    size_t start = 0;
    if (path.size() >= 2 && path[0] == name_ && !name_.empty()) start = 1;
    if (path.size() - start < 2) {
      other = true;  // Graph-attribute or bare reference: keep global.
      continue;
    }
    std::string prefix = path[start];
    for (size_t i = start + 1; i + 1 < path.size(); ++i) {
      prefix += ".";
      prefix += path[i];
    }
    auto nit = built_.node_names.find(prefix);
    if (nit != built_.node_names.end()) {
      nodes.insert(nit->second);
      continue;
    }
    auto eit = built_.edge_names.find(prefix);
    if (eit != built_.edge_names.end()) {
      edges.insert(eit->second);
      continue;
    }
    other = true;  // References something outside the pattern.
  }

  if (!other && nodes.size() == 1 && edges.empty()) {
    node_preds_[*nodes.begin()].push_back(conjunct);
    return;
  }
  if (!other && edges.size() == 1 && nodes.empty()) {
    edge_preds_[*edges.begin()].push_back(conjunct);
    return;
  }
  GlobalConjunct global{conjunct, {nodes.begin(), nodes.end()},
                        other || !edges.empty()};
  std::sort(global.nodes.begin(), global.nodes.end());
  global_preds_.push_back(std::move(global));
}

bool GraphPattern::NodeCompatible(NodeId u, const Graph& data,
                                  NodeId v) const {
  return NodeCompatibleWith(u, data, v, &scratch_mapping_);
}

bool GraphPattern::EdgeCompatible(EdgeId pe, const Graph& data,
                                  EdgeId de) const {
  return EdgeCompatibleWith(pe, data, de, &scratch_mapping_,
                            &scratch_edge_mapping_);
}

bool GraphPattern::NodeCompatibleWith(NodeId u, const Graph& data, NodeId v,
                                      std::vector<NodeId>* mapping) const {
  const AttrTuple& want = built_.graph.node(u).attrs;
  const AttrTuple& have = data.node(v).attrs;
  if (want.has_tag() && want.tag() != have.tag()) return false;
  for (const auto& [k, val] : want.attrs()) {
    auto got = have.Get(k);
    if (!got || !(*got == val)) return false;
  }
  if (node_preds_[u].empty()) return true;
  return NodePredsOk(u, data, v, mapping);
}

bool GraphPattern::NodePredsOk(NodeId u, const Graph& data, NodeId v,
                               std::vector<NodeId>* mapping) const {
  Bindings bindings;
  BoundGraph bound;
  bound.attr_graph = &data;
  bound.names = &built_.node_names;
  bound.mapping = mapping;
  bindings.SetDefault(bound);
  if (!name_.empty()) bindings.Bind(name_, bound);
  bindings.SetCurrentNode(&data, v);
  (*mapping)[u] = v;
  bool ok = true;
  for (const lang::ExprPtr& pred : node_preds_[u]) {
    Result<bool> r = EvalPredicate(*pred, bindings);
    if (!r.ok() || !r.value()) {
      ok = false;
      break;
    }
  }
  (*mapping)[u] = kInvalidNode;
  return ok;
}

bool GraphPattern::NodePredsOkSubset(NodeId u, const Graph& data, NodeId v,
                                     const std::vector<uint32_t>& indices,
                                     PatternScratch* scratch) const {
  if (indices.empty()) return true;
  if (scratch->mapping_.size() < built_.graph.NumNodes()) {
    scratch->mapping_.resize(built_.graph.NumNodes(), kInvalidNode);
  }
  std::vector<NodeId>* mapping = &scratch->mapping_;
  Bindings bindings;
  BoundGraph bound;
  bound.attr_graph = &data;
  bound.names = &built_.node_names;
  bound.mapping = mapping;
  bindings.SetDefault(bound);
  if (!name_.empty()) bindings.Bind(name_, bound);
  bindings.SetCurrentNode(&data, v);
  (*mapping)[u] = v;
  bool ok = true;
  for (uint32_t i : indices) {
    Result<bool> r = EvalPredicate(*node_preds_[u][i], bindings);
    if (!r.ok() || !r.value()) {
      ok = false;
      break;
    }
  }
  (*mapping)[u] = kInvalidNode;
  return ok;
}

bool GraphPattern::EdgeCompatibleWith(EdgeId pe, const Graph& data, EdgeId de,
                                      std::vector<NodeId>* mapping,
                                      std::vector<EdgeId>* edge_mapping) const {
  const AttrTuple& want = built_.graph.edge(pe).attrs;
  const AttrTuple& have = data.edge(de).attrs;
  if (want.has_tag() && want.tag() != have.tag()) return false;
  for (const auto& [k, val] : want.attrs()) {
    auto got = have.Get(k);
    if (!got || !(*got == val)) return false;
  }
  if (edge_preds_[pe].empty()) return true;
  return EdgePredsOk(pe, data, de, mapping, edge_mapping);
}

bool GraphPattern::EdgePredsOk(EdgeId pe, const Graph& data, EdgeId de,
                               std::vector<NodeId>* mapping,
                               std::vector<EdgeId>* edge_mapping) const {
  Bindings bindings;
  BoundGraph bound;
  bound.attr_graph = &data;
  bound.names = &built_.node_names;
  bound.mapping = mapping;
  bound.edge_names = &built_.edge_names;
  bound.edge_mapping = edge_mapping;
  bindings.SetDefault(bound);
  if (!name_.empty()) bindings.Bind(name_, bound);
  bindings.SetCurrentEdge(&data, de);
  (*edge_mapping)[pe] = de;
  bool ok = true;
  for (const lang::ExprPtr& pred : edge_preds_[pe]) {
    Result<bool> r = EvalPredicate(*pred, bindings);
    if (!r.ok() || !r.value()) {
      ok = false;
      break;
    }
  }
  (*edge_mapping)[pe] = kInvalidEdge;
  return ok;
}

// The Snap path mirrors the tuple probes in EdgeCompatibleWith exactly:
// the attribute must exist and compare equal under Value semantics.
// String-vs-string equality reduces to symbol equality; everything else
// (numbers, bools, nulls, cross-kind numeric equality) goes through
// Value::operator== on the column's stored Value.

bool GraphPattern::EdgeCompatibleSnap(EdgeId pe, const GraphSnapshot& snap,
                                      const Graph& data, EdgeId de,
                                      std::vector<NodeId>* mapping,
                                      std::vector<EdgeId>* edge_mapping) const {
  if (edge_tag_syms_[pe] != kNoSymbol &&
      edge_tag_syms_[pe] != snap.edge_tag_sym(de)) {
    return false;
  }
  for (const SymReq& r : edge_reqs_[pe]) {
    const GraphSnapshot::Column* col = snap.EdgeColumn(r.attr_sym);
    if (col == nullptr) return false;
    if (r.val_sym != kNoSymbol) {
      if (col->FindValSym(de) != r.val_sym) return false;
    } else {
      const Value* got = col->Find(de);
      if (got == nullptr || !(*got == r.value)) return false;
    }
  }
  if (edge_preds_[pe].empty()) return true;
  return EdgePredsOk(pe, data, de, mapping, edge_mapping);
}

bool GraphPattern::EdgeCompatible(EdgeId pe, const GraphSnapshot& snap,
                                  const Graph& data, EdgeId de) const {
  return EdgeCompatibleSnap(pe, snap, data, de, &scratch_mapping_,
                            &scratch_edge_mapping_);
}

bool GraphPattern::EdgeCompatible(EdgeId pe, const GraphSnapshot& snap,
                                  const Graph& data, EdgeId de,
                                  PatternScratch* scratch) const {
  if (scratch->mapping_.size() < built_.graph.NumNodes()) {
    scratch->mapping_.resize(built_.graph.NumNodes(), kInvalidNode);
  }
  if (scratch->edge_mapping_.size() < built_.graph.NumEdges()) {
    scratch->edge_mapping_.resize(built_.graph.NumEdges(), kInvalidEdge);
  }
  return EdgeCompatibleSnap(pe, snap, data, de, &scratch->mapping_,
                            &scratch->edge_mapping_);
}

Result<bool> GraphPattern::EvalGlobalPred(
    const Graph& data, const std::vector<NodeId>& node_mapping,
    const std::vector<EdgeId>& edge_mapping) const {
  if (global_preds_.empty()) return true;
  Bindings bindings;
  BindEmbedding(data, node_mapping, edge_mapping, &bindings);
  size_t next = 0;
  return EvalGlobalPreds(bindings, &next, global_preds_.size());
}

void GraphPattern::BindEmbedding(const Graph& data,
                                 const std::vector<NodeId>& node_mapping,
                                 const std::vector<EdgeId>& edge_mapping,
                                 Bindings* bindings) const {
  BoundGraph bound;
  bound.attr_graph = &data;
  bound.names = &built_.node_names;
  bound.mapping = &node_mapping;
  bound.edge_names = &built_.edge_names;
  if (!edge_mapping.empty()) bound.edge_mapping = &edge_mapping;
  bindings->SetDefault(bound);
  if (!name_.empty()) bindings->Bind(name_, bound);
}

Result<bool> GraphPattern::EvalGlobalPreds(const Bindings& bindings,
                                           size_t* next, size_t last) const {
  for (; *next < last; ++*next) {
    GQL_ASSIGN_OR_RETURN(bool ok,
                         EvalPredicate(*global_preds_[*next].expr, bindings));
    if (!ok) return false;
  }
  return true;
}

}  // namespace graphql::algebra
