#include "graph/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/symbols.h"
#include "workload/erdos_renyi.h"

namespace graphql {
namespace {

std::string_view Name(SymbolId id) { return SymbolTable::Global().Name(id); }

Graph TaggedSample(bool directed) {
  Graph g("S", directed);
  NodeId a = g.AddNode("a", AttrTuple("person"));
  NodeId b = g.AddNode("b", AttrTuple("person"));
  NodeId c = g.AddNode("c");
  g.node(a).attrs.Set("label", Value("A"));
  g.node(a).attrs.Set("age", Value(int64_t{30}));
  g.node(b).attrs.Set("label", Value("B"));
  AttrTuple knows("knows");
  knows.Set("since", Value(int64_t{1999}));
  g.AddEdge(a, b, "e0", knows);
  g.AddEdge(a, b, "e1", AttrTuple("likes"));  // Parallel edge.
  g.AddEdge(b, c);
  g.AddEdge(c, c);  // Self loop.
  return g;
}

TEST(GraphSnapshotTest, InternsNamesTagsAndLabels) {
  Graph g = TaggedSample(/*directed=*/false);
  auto snap = g.snapshot();
  EXPECT_EQ(Name(snap->graph_name_sym()), "S");
  EXPECT_EQ(Name(snap->node_name_sym(0)), "a");
  EXPECT_EQ(Name(snap->node_tag_sym(0)), "person");
  EXPECT_EQ(Name(snap->node_label_sym(0)), "A");
  EXPECT_EQ(Name(snap->node_label_sym(1)), "B");
  EXPECT_EQ(snap->node_label_sym(2), kNoSymbol);  // Unlabeled.
  EXPECT_EQ(snap->node_tag_sym(2), kNoSymbol);    // Untagged.
  EXPECT_EQ(Name(snap->edge_tag_sym(0)), "knows");
  EXPECT_EQ(Name(snap->edge_tag_sym(1)), "likes");
  EXPECT_EQ(snap->edge_tag_sym(2), kNoSymbol);
  // Same strings intern to the same ids (dense, process-wide).
  EXPECT_EQ(snap->node_tag_sym(0), snap->node_tag_sym(1));
  // Labels in first-appearance order.
  ASSERT_EQ(snap->labels_in_order().size(), 2u);
  EXPECT_EQ(Name(snap->labels_in_order()[0]), "A");
  EXPECT_EQ(Name(snap->labels_in_order()[1]), "B");
}

TEST(GraphSnapshotTest, ColumnarAttributeLookup) {
  Graph g = TaggedSample(/*directed=*/false);
  auto snap = g.snapshot();
  SymbolId age = SymbolTable::Global().Lookup("age");
  ASSERT_NE(age, kNoSymbol);
  const GraphSnapshot::Column* col = snap->NodeColumn(age);
  ASSERT_NE(col, nullptr);
  ASSERT_EQ(col->ids.size(), 1u);
  EXPECT_EQ(col->ids[0], 0);
  EXPECT_EQ(col->values[0], Value(int64_t{30}));
  ASSERT_NE(col->Find(0), nullptr);
  EXPECT_EQ(*col->Find(0), Value(int64_t{30}));
  EXPECT_EQ(col->Find(1), nullptr);
  // String values carry their interned symbol; non-strings kNoSymbol.
  SymbolId label = SymbolTable::Global().Lookup("label");
  const GraphSnapshot::Column* lcol = snap->NodeColumn(label);
  ASSERT_NE(lcol, nullptr);
  EXPECT_EQ(Name(lcol->FindValSym(0)), "A");
  EXPECT_EQ(col->FindValSym(0), kNoSymbol);  // age is an int.
  // Edge column.
  SymbolId since = SymbolTable::Global().Lookup("since");
  const GraphSnapshot::Column* ecol = snap->EdgeColumn(since);
  ASSERT_NE(ecol, nullptr);
  EXPECT_EQ(*ecol->Find(0), Value(int64_t{1999}));
  // Missing attribute: no column.
  EXPECT_EQ(snap->NodeColumn(SymbolTable::Global().Intern("nope")), nullptr);
}

/// Find/FindValSym against a linear scan of the column for every id in
/// [-1, n]: the dense-column shortcut and the binary search must both
/// agree with it.
void ExpectLookupsMatchScan(const GraphSnapshot::Column& col, int32_t n,
                            const std::string& what) {
  for (int32_t id = -1; id <= n; ++id) {
    const Value* want = nullptr;
    SymbolId want_sym = kNoSymbol;
    for (size_t j = 0; j < col.ids.size(); ++j) {
      if (col.ids[j] == id) {
        want = &col.values[j];
        want_sym = col.val_syms[j];
      }
    }
    EXPECT_EQ(col.Find(id), want) << what << " id " << id;
    EXPECT_EQ(col.FindValSym(id), want_sym) << what << " id " << id;
  }
}

TEST(GraphSnapshotTest, ColumnLookupsMatchLinearScan) {
  // Eight nodes; each attribute covers a different id set.
  const std::vector<std::pair<const char*, std::vector<int32_t>>> shapes = {
      {"lk_dense", {0, 1, 2, 3, 4, 5, 6, 7}},
      {"lk_prefix_gap", {0, 1, 2, 5}},
      {"lk_gap_first", {3, 4, 6}},
      {"lk_single_last", {7}},
      {"lk_single_first", {0}},
  };
  constexpr int32_t kNodes = 8;
  Graph g("lookups");
  for (int32_t v = 0; v < kNodes; ++v) g.AddNode("n" + std::to_string(v));
  for (const auto& [attr, ids] : shapes) {
    for (int32_t v : ids) {
      // Alternate strings and ints so FindValSym sees both.
      g.node(v).attrs.Set(attr, v % 2 == 0 ? Value("s" + std::to_string(v))
                                           : Value(int64_t{v}));
    }
  }
  auto snap = g.snapshot();
  for (const auto& [attr, ids] : shapes) {
    const GraphSnapshot::Column* col =
        snap->NodeColumn(SymbolTable::Global().Lookup(attr));
    ASSERT_NE(col, nullptr) << attr;
    ASSERT_EQ(std::vector<int32_t>(col->ids.begin(), col->ids.end()), ids);
    ExpectLookupsMatchScan(*col, kNodes, attr);
  }
  // An empty column (no Graph produces one; built by hand).
  GraphSnapshot::Column empty;
  empty.BindOwned();
  ExpectLookupsMatchScan(empty, kNodes, "empty");
}

TEST(GraphSnapshotTest, CsrMatchesAdjacencyMultiset) {
  for (bool directed : {false, true}) {
    Graph g = TaggedSample(directed);
    auto snap = g.snapshot();
    for (size_t v = 0; v < g.NumNodes(); ++v) {
      NodeId vid = static_cast<NodeId>(v);
      std::vector<std::pair<NodeId, EdgeId>> legacy;
      for (const Graph::Adj& a : g.neighbors(vid)) {
        legacy.emplace_back(a.node, a.edge);
      }
      std::vector<std::pair<NodeId, EdgeId>> csr;
      for (const GraphSnapshot::AdjEntry& a : snap->out(vid)) {
        csr.emplace_back(a.node, a.edge);
        EXPECT_EQ(a.tag_sym,
                  g.edge(a.edge).attrs.has_tag()
                      ? SymbolTable::Global().Lookup(g.edge(a.edge).attrs.tag())
                      : kNoSymbol);
      }
      EXPECT_EQ(snap->Degree(vid), legacy.size());
      std::sort(legacy.begin(), legacy.end());
      // CSR order is already (neighbor, edge)-sorted.
      EXPECT_TRUE(std::is_sorted(csr.begin(), csr.end()));
      EXPECT_EQ(csr, legacy) << (directed ? "directed" : "undirected")
                             << " node " << v;
    }
  }
}

TEST(GraphSnapshotTest, EdgeQueriesAgreeWithGraph) {
  for (bool directed : {false, true}) {
    Graph g = TaggedSample(directed);
    auto snap = g.snapshot();
    for (size_t u = 0; u < g.NumNodes(); ++u) {
      for (size_t v = 0; v < g.NumNodes(); ++v) {
        NodeId uu = static_cast<NodeId>(u);
        NodeId vv = static_cast<NodeId>(v);
        EXPECT_EQ(snap->HasEdgeBetween(uu, vv), g.HasEdgeBetween(uu, vv));
        EXPECT_EQ(snap->FindFirstEdge(uu, vv), g.FindEdge(uu, vv))
            << u << "->" << v;
        // EdgesBetween runs are ascending in edge id and all connect u-v.
        EdgeId prev = kInvalidEdge;
        for (const GraphSnapshot::AdjEntry& a : snap->EdgesBetween(uu, vv)) {
          EXPECT_EQ(a.node, vv);
          if (prev != kInvalidEdge) EXPECT_GT(a.edge, prev);
          prev = a.edge;
        }
      }
    }
    // The parallel pair a->b is a run of length 2, lowest edge id first.
    auto run = snap->EdgesBetween(0, 1);
    ASSERT_EQ(run.size(), 2u);
    EXPECT_EQ(run[0].edge, 0u);
    EXPECT_EQ(run[1].edge, 1u);
  }
}

TEST(GraphSnapshotTest, DirectedInArraysAndUniqueNeighbors) {
  Graph g("D", /*directed=*/true);
  NodeId a = g.AddNode("a");
  NodeId b = g.AddNode("b");
  NodeId c = g.AddNode("c");
  g.AddEdge(a, b);
  g.AddEdge(c, b);
  g.AddEdge(b, a);
  auto snap = g.snapshot();
  EXPECT_EQ(snap->out(a).size(), 1u);
  ASSERT_EQ(snap->in(b).size(), 2u);
  EXPECT_EQ(snap->in(b)[0].node, a);
  EXPECT_EQ(snap->in(b)[1].node, c);
  // unique_neighbors ignores direction and dedups.
  auto ua = snap->unique_neighbors(a);
  ASSERT_EQ(ua.size(), 1u);  // b via out-edge and in-edge: one entry.
  EXPECT_EQ(ua[0], b);
  auto ub = snap->unique_neighbors(b);
  EXPECT_EQ(std::vector<NodeId>(ub.begin(), ub.end()),
            (std::vector<NodeId>{a, c}));
}

TEST(GraphSnapshotTest, CacheInvalidatedByVersion) {
  Graph g = TaggedSample(false);
  bool fresh = false;
  auto s1 = g.snapshot(&fresh);
  EXPECT_TRUE(fresh);
  auto s2 = g.snapshot(&fresh);
  EXPECT_FALSE(fresh);           // Cached: same object, no rebuild.
  EXPECT_EQ(s1.get(), s2.get());
  EXPECT_EQ(s1->source_version(), g.version());
  g.AddNode("new");              // Mutation bumps the version.
  auto s3 = g.snapshot(&fresh);
  EXPECT_TRUE(fresh);
  EXPECT_NE(s3.get(), s1.get());
  EXPECT_EQ(s3->num_nodes(), s1->num_nodes() + 1);
  // The old snapshot stays alive and unchanged for holders of the ptr.
  EXPECT_EQ(s1->num_nodes(), 3u);
}

TEST(GraphSnapshotTest, DerivedCellsAreWriteOnceAndDieWithTheSnapshot) {
  Graph g = TaggedSample(false);
  auto snap = g.snapshot();
  const size_t bytes = snap->bytes();
  auto object = std::make_shared<const int>(7);
  std::weak_ptr<const int> weak = object;
  int builds = 0;
  auto build = [&]() -> std::shared_ptr<const void> {
    ++builds;
    return object;
  };
  bool built = false;
  const void* first = snap->Derived(0, build, &built);
  EXPECT_TRUE(built);
  EXPECT_EQ(snap->Derived(0, build, &built), first);
  EXPECT_FALSE(built);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(*static_cast<const int*>(first), 7);
  // Cells are independent, and the slot is not counted in bytes().
  snap->Derived(1, build, &built);
  EXPECT_TRUE(built);
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(snap->bytes(), bytes);

  // A mutated graph compiles a new snapshot with empty cells; the old
  // one frees its cells with its last holder.
  object.reset();
  g.AddNode("new");
  auto next = g.snapshot();
  ASSERT_NE(next.get(), snap.get());
  next->Derived(0, [] { return std::make_shared<const int>(9); }, &built);
  EXPECT_TRUE(built);
  EXPECT_FALSE(weak.expired());
  snap.reset();
  EXPECT_TRUE(weak.expired());
}

TEST(GraphSnapshotTest, ReportsCostAccounting) {
  Graph g = TaggedSample(false);
  auto snap = g.snapshot();
  EXPECT_GT(snap->csr_bytes(), 0u);
  EXPECT_GT(snap->column_bytes(), 0u);
  EXPECT_EQ(snap->bytes(),
            snap->csr_bytes() + snap->column_bytes() + snap->sym_bytes());
  EXPECT_GE(snap->build_micros(), 0);
}

/// Randomized round-trip: every structural/attribute accessor of the
/// snapshot must agree with the source graph, on random multigraphs.
class SnapshotPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SnapshotPropertyTest, AgreesWithSourceGraph) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 101);
  workload::ErdosRenyiOptions opts;
  opts.num_nodes = 24;
  opts.num_edges = 60;
  opts.num_labels = 4;
  Graph g = workload::MakeErdosRenyi(opts, &rng);
  // Sprinkle extra structure the generator does not produce: parallel
  // edges, self loops, tags, and typed attributes.
  for (int i = 0; i < 6; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(opts.num_nodes));
    NodeId v = static_cast<NodeId>(rng.NextBounded(opts.num_nodes));
    AttrTuple t(i % 2 == 0 ? "rewires" : "");
    if (i % 3 == 0) t.Set("w", Value(static_cast<int64_t>(i)));
    g.AddEdge(u, v, "", t);
  }
  g.AddEdge(3, 3);
  g.node(5).attrs.Set("score", Value(2.5));

  auto snap = g.snapshot();
  ASSERT_EQ(snap->num_nodes(), g.NumNodes());
  ASSERT_EQ(snap->num_edges(), g.NumEdges());
  EXPECT_EQ(snap->directed(), g.directed());

  // Edge endpoints and interned strings.
  for (size_t e = 0; e < g.NumEdges(); ++e) {
    EdgeId ee = static_cast<EdgeId>(e);
    EXPECT_EQ(snap->edge_src(ee), g.edge(ee).src);
    EXPECT_EQ(snap->edge_dst(ee), g.edge(ee).dst);
  }
  // Adjacency multisets per node.
  for (size_t v = 0; v < g.NumNodes(); ++v) {
    NodeId vid = static_cast<NodeId>(v);
    std::multiset<std::pair<NodeId, EdgeId>> legacy;
    for (const Graph::Adj& a : g.neighbors(vid)) {
      legacy.emplace(a.node, a.edge);
    }
    std::multiset<std::pair<NodeId, EdgeId>> csr;
    for (const GraphSnapshot::AdjEntry& a : snap->out(vid)) {
      csr.emplace(a.node, a.edge);
    }
    EXPECT_EQ(csr, legacy) << "node " << v;
  }
  // Pairwise existence / first-edge agreement.
  for (size_t u = 0; u < g.NumNodes(); ++u) {
    for (size_t v = 0; v < g.NumNodes(); ++v) {
      NodeId uu = static_cast<NodeId>(u);
      NodeId vv = static_cast<NodeId>(v);
      ASSERT_EQ(snap->HasEdgeBetween(uu, vv), g.HasEdgeBetween(uu, vv));
      ASSERT_EQ(snap->FindFirstEdge(uu, vv), g.FindEdge(uu, vv));
    }
  }
  // Every node/edge attribute is findable in its column with the same
  // value, and columns hold nothing extra.
  size_t column_entries = 0;
  for (const GraphSnapshot::Column& col : snap->node_columns()) {
    column_entries += col.ids.size();
    EXPECT_TRUE(std::is_sorted(col.ids.begin(), col.ids.end()));
  }
  size_t attr_entries = 0;
  for (size_t v = 0; v < g.NumNodes(); ++v) {
    for (const auto& [key, value] : g.node(static_cast<NodeId>(v)).attrs.attrs()) {
      ++attr_entries;
      SymbolId sym = SymbolTable::Global().Lookup(key);
      ASSERT_NE(sym, kNoSymbol);
      const GraphSnapshot::Column* col = snap->NodeColumn(sym);
      ASSERT_NE(col, nullptr) << key;
      const Value* stored = col->Find(static_cast<int32_t>(v));
      ASSERT_NE(stored, nullptr) << key << " node " << v;
      EXPECT_EQ(*stored, value);
    }
  }
  EXPECT_EQ(column_entries, attr_entries);
  for (size_t e = 0; e < g.NumEdges(); ++e) {
    for (const auto& [key, value] : g.edge(static_cast<EdgeId>(e)).attrs.attrs()) {
      const GraphSnapshot::Column* col =
          snap->EdgeColumn(SymbolTable::Global().Lookup(key));
      ASSERT_NE(col, nullptr);
      const Value* stored = col->Find(static_cast<int32_t>(e));
      ASSERT_NE(stored, nullptr);
      EXPECT_EQ(*stored, value);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SnapshotPropertyTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace graphql
