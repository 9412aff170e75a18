#include "datalog/translator.h"

#include <unordered_set>

#include "common/strings.h"
#include "datalog/evaluator.h"

namespace graphql::datalog {

namespace {

std::string EntityId(const std::string& gid, const std::string& name,
                     size_t index) {
  if (!name.empty()) return gid + "." + name;
  return gid + ".#" + std::to_string(index);
}

void EmitAttrs(const std::string& entity, const AttrTuple& attrs,
               FactDatabase* out) {
  if (attrs.has_tag()) {
    out->Add("attribute",
             {Value(entity), Value(std::string("__tag")), Value(attrs.tag())});
  }
  for (const auto& [k, v] : attrs.attrs()) {
    out->Add("attribute", {Value(entity), Value(k), v});
  }
}

}  // namespace

void GraphToFacts(const Graph& g, const std::string& gid, FactDatabase* out) {
  out->Add("graph", {Value(gid)});
  EmitAttrs(gid, g.attrs(), out);
  std::vector<std::string> node_ids(g.NumNodes());
  for (size_t v = 0; v < g.NumNodes(); ++v) {
    node_ids[v] = EntityId(gid, g.node(static_cast<NodeId>(v)).name, v);
    out->Add("node", {Value(gid), Value(node_ids[v])});
    EmitAttrs(node_ids[v], g.node(static_cast<NodeId>(v)).attrs, out);
  }
  for (size_t e = 0; e < g.NumEdges(); ++e) {
    const Graph::Edge& ed = g.edge(static_cast<EdgeId>(e));
    std::string eid = EntityId(gid, ed.name, e) + "$e";
    out->Add("edge", {Value(gid), Value(eid), Value(node_ids[ed.src]),
                      Value(node_ids[ed.dst])});
    if (!g.directed()) {
      out->Add("edge", {Value(gid), Value(eid), Value(node_ids[ed.dst]),
                        Value(node_ids[ed.src])});
    }
    EmitAttrs(eid, ed.attrs, out);
  }
}

FactDatabase CollectionToFacts(const GraphCollection& c) {
  FactDatabase out;
  std::unordered_set<std::string> used;
  for (size_t i = 0; i < c.size(); ++i) {
    std::string gid = c[i].name();
    if (gid.empty() || !used.insert(gid).second) {
      gid = "G" + std::to_string(i);
      used.insert(gid);
    }
    GraphToFacts(c[i], gid, &out);
  }
  return out;
}

namespace {

/// What a dotted path in a pattern predicate refers to.
struct Resolved {
  enum class Kind { kNodeAttr, kEdgeAttr, kGraphAttr };
  Kind kind = Kind::kGraphAttr;
  int entity = -1;  ///< Pattern node/edge id.
  std::string attr;
};

Result<Resolved> ResolvePredPath(const algebra::GraphPattern& pattern,
                                 const std::vector<std::string>& path,
                                 NodeId context_node, EdgeId context_edge) {
  Resolved r;
  size_t start = 0;
  if (path.size() >= 2 && !pattern.name().empty() &&
      path[0] == pattern.name()) {
    start = 1;
  }
  size_t n = path.size() - start;
  if (n == 1) {
    // Bare attribute: the inline-where context entity, else a graph attr.
    r.attr = path[start];
    if (context_node != kInvalidNode) {
      r.kind = Resolved::Kind::kNodeAttr;
      r.entity = context_node;
    } else if (context_edge != kInvalidEdge) {
      r.kind = Resolved::Kind::kEdgeAttr;
      r.entity = context_edge;
    } else {
      r.kind = Resolved::Kind::kGraphAttr;
    }
    return r;
  }
  std::string prefix = path[start];
  for (size_t i = start + 1; i + 1 < path.size(); ++i) {
    prefix += ".";
    prefix += path[i];
  }
  r.attr = path.back();
  auto nit = pattern.node_names().find(prefix);
  if (nit != pattern.node_names().end()) {
    r.kind = Resolved::Kind::kNodeAttr;
    r.entity = nit->second;
    return r;
  }
  auto eit = pattern.edge_names().find(prefix);
  if (eit != pattern.edge_names().end()) {
    r.kind = Resolved::Kind::kEdgeAttr;
    r.entity = eit->second;
    return r;
  }
  return Status::Unsupported("predicate path '" + Join(path, ".") +
                             "' does not name a pattern node or edge");
}

/// Adds body atoms binding a fresh variable to the referenced attribute;
/// returns the variable term.
Term BindAttr(const Resolved& r, Rule* rule, int* fresh) {
  std::string var = "T" + std::to_string((*fresh)++);
  std::string entity_var;
  switch (r.kind) {
    case Resolved::Kind::kNodeAttr:
      entity_var = "V" + std::to_string(r.entity);
      break;
    case Resolved::Kind::kEdgeAttr:
      entity_var = "E" + std::to_string(r.entity);
      break;
    case Resolved::Kind::kGraphAttr:
      entity_var = "G";
      break;
  }
  Atom a;
  a.predicate = "attribute";
  a.args = {Term::Var(entity_var), Term::Const(Value(r.attr)),
            Term::Var(var)};
  rule->body.push_back(std::move(a));
  return Term::Var(var);
}

/// Translates one conjunct of a pattern predicate into body atoms and a
/// comparison. Supported shapes: name op literal, literal op name,
/// name op name.
Status TranslateConjunct(const algebra::GraphPattern& pattern,
                         const lang::Expr& expr, NodeId context_node,
                         EdgeId context_edge, Rule* rule, int* fresh) {
  if (expr.kind != lang::Expr::Kind::kBinary) {
    return Status::Unsupported(
        "only binary comparisons are translatable to Datalog");
  }
  if (expr.op == lang::BinaryOp::kAnd) {
    GQL_RETURN_IF_ERROR(TranslateConjunct(pattern, *expr.lhs, context_node,
                                          context_edge, rule, fresh));
    return TranslateConjunct(pattern, *expr.rhs, context_node, context_edge,
                             rule, fresh);
  }
  auto term_of = [&](const lang::Expr& side) -> Result<Term> {
    if (side.kind == lang::Expr::Kind::kLiteral) {
      return Term::Const(side.literal);
    }
    if (side.kind == lang::Expr::Kind::kName) {
      GQL_ASSIGN_OR_RETURN(Resolved r, ResolvePredPath(pattern, side.path,
                                                       context_node,
                                                       context_edge));
      return BindAttr(r, rule, fresh);
    }
    return Status::Unsupported(
        "arithmetic inside predicates is not translatable to Datalog");
  };
  GQL_ASSIGN_OR_RETURN(Term lhs, term_of(*expr.lhs));
  GQL_ASSIGN_OR_RETURN(Term rhs, term_of(*expr.rhs));
  switch (expr.op) {
    case lang::BinaryOp::kEq:
    case lang::BinaryOp::kNe:
    case lang::BinaryOp::kLt:
    case lang::BinaryOp::kLe:
    case lang::BinaryOp::kGt:
    case lang::BinaryOp::kGe:
      rule->comparisons.push_back(Comparison{expr.op, lhs, rhs});
      return Status::OK();
    default:
      return Status::Unsupported(
          "operator '" + std::string(lang::BinaryOpName(expr.op)) +
          "' is not translatable to Datalog");
  }
}

}  // namespace

Result<Rule> PatternToRule(const algebra::GraphPattern& pattern,
                           const std::string& head_predicate) {
  const Graph& p = pattern.graph();
  Rule rule;
  rule.head.predicate = head_predicate;
  rule.head.args.push_back(Term::Var("G"));
  rule.body.push_back(Atom{"graph", {Term::Var("G")}});

  for (size_t u = 0; u < p.NumNodes(); ++u) {
    std::string v = "V" + std::to_string(u);
    rule.head.args.push_back(Term::Var(v));
    rule.body.push_back(Atom{"node", {Term::Var("G"), Term::Var(v)}});
  }
  for (size_t e = 0; e < p.NumEdges(); ++e) {
    const Graph::Edge& ed = p.edge(static_cast<EdgeId>(e));
    rule.body.push_back(
        Atom{"edge",
             {Term::Var("G"), Term::Var("E" + std::to_string(e)),
              Term::Var("V" + std::to_string(ed.src)),
              Term::Var("V" + std::to_string(ed.dst))}});
  }

  int fresh = 0;
  // Attribute equality constraints (including tags) become attribute atoms
  // with constant values, as in Figure 4.15's label handling.
  auto emit_attr_constraints = [&](const std::string& entity_var,
                                   const AttrTuple& attrs) {
    if (attrs.has_tag()) {
      rule.body.push_back(
          Atom{"attribute",
               {Term::Var(entity_var), Term::Const(Value("__tag")),
                Term::Const(Value(attrs.tag()))}});
    }
    for (const auto& [k, v] : attrs.attrs()) {
      rule.body.push_back(Atom{"attribute",
                               {Term::Var(entity_var), Term::Const(Value(k)),
                                Term::Const(v)}});
    }
  };
  for (size_t u = 0; u < p.NumNodes(); ++u) {
    emit_attr_constraints("V" + std::to_string(u),
                          p.node(static_cast<NodeId>(u)).attrs);
    for (const lang::ExprPtr& pred : pattern.NodePreds(static_cast<NodeId>(u))) {
      GQL_RETURN_IF_ERROR(TranslateConjunct(pattern, *pred,
                                            static_cast<NodeId>(u),
                                            kInvalidEdge, &rule, &fresh));
    }
  }
  for (size_t e = 0; e < p.NumEdges(); ++e) {
    emit_attr_constraints("E" + std::to_string(e),
                          p.edge(static_cast<EdgeId>(e)).attrs);
    for (const lang::ExprPtr& pred : pattern.EdgePreds(static_cast<EdgeId>(e))) {
      GQL_RETURN_IF_ERROR(TranslateConjunct(pattern, *pred, kInvalidNode,
                                            static_cast<EdgeId>(e), &rule,
                                            &fresh));
    }
  }
  for (const algebra::GraphPattern::GlobalConjunct& c :
       pattern.GlobalPreds()) {
    GQL_RETURN_IF_ERROR(TranslateConjunct(pattern, *c.expr, kInvalidNode,
                                          kInvalidEdge, &rule, &fresh));
  }

  // Injectivity of the mapping.
  for (size_t a = 0; a < p.NumNodes(); ++a) {
    for (size_t b = a + 1; b < p.NumNodes(); ++b) {
      rule.comparisons.push_back(
          Comparison{lang::BinaryOp::kNe, Term::Var("V" + std::to_string(a)),
                     Term::Var("V" + std::to_string(b))});
    }
  }
  return rule;
}

Result<std::vector<Fact>> EvaluatePatternQuery(
    const algebra::GraphPattern& pattern, const GraphCollection& collection) {
  FactDatabase edb = CollectionToFacts(collection);
  GQL_ASSIGN_OR_RETURN(Rule rule, PatternToRule(pattern, "match"));
  return Query({rule}, edb, "match");
}

}  // namespace graphql::datalog
