#include "io/snapshot_v3.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/symbols.h"
#include "motif/deriver.h"

namespace graphql::io {
namespace {

class TempPath {
 public:
  explicit TempPath(const char* suffix) {
    char buf[] = "/tmp/gql_v3_test_XXXXXX";
    int fd = ::mkstemp(buf);
    if (fd >= 0) ::close(fd);
    std::remove(buf);
    path_ = std::string(buf) + suffix;
  }
  ~TempPath() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

GraphCollection SampleCollection() {
  GraphCollection c("db");
  // Undirected graph with every value kind, parallel edges, a self loop,
  // and labels.
  auto g1 = motif::GraphFromSource(R"(
    graph G1 <venue="SIGMOD", year=2008> {
      node a <label="A", weight=1.5, flag=true>;
      node b <label="B", count=7>;
      node c <label="A", note="shared label">;
      node d;
      edge e1 (a, b) <rel="knows", strength=2>;
      edge e2 (a, b) <rel="likes">;
      edge e3 (b, c);
      edge e4 (c, c) <self="yes">;
    })");
  EXPECT_TRUE(g1.ok()) << g1.status();
  c.Add(std::move(g1).value());
  // Directed graph (built programmatically; the surface syntax builds
  // undirected graphs).
  Graph g2("G2", /*directed=*/true);
  AttrTuple xa;
  xa.Set("label", Value("X"));
  NodeId x = g2.AddNode("x", xa);
  NodeId y = g2.AddNode("y");
  AttrTuple fa;
  fa.Set("w", Value(0.25));
  g2.AddEdge(x, y, "f1", fa);
  g2.AddEdge(y, x, "f2");
  c.Add(std::move(g2));
  // Empty graph.
  c.Add(Graph("empty"));
  return c;
}

/// Asserts that two snapshots expose identical contents through every
/// accessor (the differential core of the format round-trip).
void ExpectSnapshotsEqual(const GraphSnapshot& a, const GraphSnapshot& b) {
  ASSERT_EQ(a.directed(), b.directed());
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.graph_name_sym(), b.graph_name_sym());
  EXPECT_EQ(a.graph_tag_sym(), b.graph_tag_sym());
  EXPECT_EQ(a.labels_in_order(), b.labels_in_order());
  for (size_t v = 0; v < a.num_nodes(); ++v) {
    NodeId id = static_cast<NodeId>(v);
    EXPECT_EQ(a.node_name_sym(id), b.node_name_sym(id));
    EXPECT_EQ(a.node_tag_sym(id), b.node_tag_sym(id));
    EXPECT_EQ(a.node_label_sym(id), b.node_label_sym(id));
    ASSERT_EQ(a.Degree(id), b.Degree(id));
    auto run_a = a.out(id);
    auto run_b = b.out(id);
    for (size_t i = 0; i < run_a.size(); ++i) {
      EXPECT_EQ(run_a[i].node, run_b[i].node);
      EXPECT_EQ(run_a[i].edge, run_b[i].edge);
      EXPECT_EQ(run_a[i].tag_sym, run_b[i].tag_sym);
    }
    auto in_a = a.in(id);
    auto in_b = b.in(id);
    ASSERT_EQ(in_a.size(), in_b.size());
    for (size_t i = 0; i < in_a.size(); ++i) {
      EXPECT_EQ(in_a[i].node, in_b[i].node);
      EXPECT_EQ(in_a[i].edge, in_b[i].edge);
    }
    auto uniq_a = a.unique_neighbors(id);
    auto uniq_b = b.unique_neighbors(id);
    ASSERT_EQ(uniq_a.size(), uniq_b.size());
    for (size_t i = 0; i < uniq_a.size(); ++i) {
      EXPECT_EQ(uniq_a[i], uniq_b[i]);
    }
  }
  for (size_t e = 0; e < a.num_edges(); ++e) {
    EdgeId id = static_cast<EdgeId>(e);
    EXPECT_EQ(a.edge_name_sym(id), b.edge_name_sym(id));
    EXPECT_EQ(a.edge_tag_sym(id), b.edge_tag_sym(id));
    EXPECT_EQ(a.edge_src(id), b.edge_src(id));
    EXPECT_EQ(a.edge_dst(id), b.edge_dst(id));
  }
  auto expect_columns = [](const std::vector<GraphSnapshot::Column>& ca,
                           const std::vector<GraphSnapshot::Column>& cb) {
    ASSERT_EQ(ca.size(), cb.size());
    for (size_t i = 0; i < ca.size(); ++i) {
      EXPECT_EQ(ca[i].attr_sym, cb[i].attr_sym);
      ASSERT_EQ(ca[i].ids.size(), cb[i].ids.size());
      for (size_t j = 0; j < ca[i].ids.size(); ++j) {
        EXPECT_EQ(ca[i].ids[j], cb[i].ids[j]);
        EXPECT_EQ(ca[i].values[j], cb[i].values[j]);
        EXPECT_EQ(ca[i].val_syms[j], cb[i].val_syms[j]);
      }
    }
  };
  expect_columns(a.node_columns(), b.node_columns());
  expect_columns(a.edge_columns(), b.edge_columns());
}

TEST(SnapshotV3Test, IsV3PathMatchesExtension) {
  EXPECT_TRUE(IsV3Path("db.gqls"));
  EXPECT_TRUE(IsV3Path("/data/chk-3/collection.gqls"));
  EXPECT_FALSE(IsV3Path("db.gqlb"));
  EXPECT_FALSE(IsV3Path("gqls"));
  EXPECT_FALSE(IsV3Path(""));
}

TEST(SnapshotV3Test, BufferRoundTripIsZeroCopyAndBitIdentical) {
  GraphCollection c = SampleCollection();
  auto image = BuildCollectionV3(c, /*store_version=*/42);
  ASSERT_TRUE(image.ok()) << image.status().message();

  auto opened = OpenCollectionV3FromBuffer(image.value());
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  EXPECT_EQ(opened.value().name, "db");
  EXPECT_EQ(opened.value().store_version, 42u);
  // Same process wrote the file, so symbol identity must hold and the
  // snapshots must view the mapped pages directly.
  EXPECT_TRUE(opened.value().symbols_identical);
  ASSERT_EQ(opened.value().snapshots.size(), c.size());
  for (size_t i = 0; i < c.size(); ++i) {
    const GraphSnapshot& from_file = *opened.value().snapshots[i];
    EXPECT_TRUE(from_file.is_mapped());
    ExpectSnapshotsEqual(*c[i].snapshot(), from_file);
  }
  // Non-empty graphs view mapped pages.
  EXPECT_GT(opened.value().snapshots[0]->mapped_bytes(), 0u);
}

TEST(SnapshotV3Test, MaterializeRebuildsIdenticalGraphsAndAdoptsSnapshots) {
  GraphCollection c = SampleCollection();
  auto image = BuildCollectionV3(c, 1);
  ASSERT_TRUE(image.ok());
  auto opened = OpenCollectionV3FromBuffer(image.value());
  ASSERT_TRUE(opened.ok());

  auto loaded = MaterializeGraphs(opened.value());
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_EQ(loaded.value().size(), c.size());
  for (size_t i = 0; i < c.size(); ++i) {
    // The builder graph round-trips bit-identically (names, attribute
    // insertion order, directedness).
    EXPECT_TRUE(loaded.value()[i].IdenticalTo(c[i])) << "graph " << i;
    // And querying it does NOT recompile: the adopted mapped snapshot is
    // returned as-is.
    bool fresh = true;
    auto snap = loaded.value()[i].snapshot(&fresh);
    EXPECT_FALSE(fresh);
    EXPECT_EQ(snap.get(), opened.value().snapshots[i].get());
  }
}

TEST(SnapshotV3Test, DiskRoundTripThroughWriteAndLoad) {
  TempPath tmp(".gqls");
  GraphCollection c = SampleCollection();
  ASSERT_TRUE(WriteCollectionV3(c, 7, tmp.path()).ok());

  auto opened = OpenCollectionV3(tmp.path());
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  EXPECT_EQ(opened.value().store_version, 7u);
  EXPECT_TRUE(opened.value().file->mapped());

  auto loaded = LoadCollectionV3(tmp.path());
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), c.size());
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_TRUE(loaded.value()[i].IdenticalTo(c[i]));
  }
}

TEST(SnapshotV3Test, TranslationFallbackProducesSameSnapshots) {
  GraphCollection c = SampleCollection();
  auto image = BuildCollectionV3(c, 1);
  ASSERT_TRUE(image.ok());

  // Force the symbol-translation path; with an identity map its output
  // must be indistinguishable from the zero-copy path.
  auto opened =
      internal::OpenFromBufferForTesting(image.value(), /*force=*/true);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  EXPECT_FALSE(opened.value().symbols_identical);
  ASSERT_EQ(opened.value().snapshots.size(), c.size());
  for (size_t i = 0; i < c.size(); ++i) {
    ExpectSnapshotsEqual(*c[i].snapshot(), *opened.value().snapshots[i]);
  }
}

TEST(SnapshotV3Test, CorruptedPageFailsOpenWithDataLoss) {
  GraphCollection c = SampleCollection();
  auto image = BuildCollectionV3(c, 1);
  ASSERT_TRUE(image.ok());
  // Flip one byte in every page in turn would be slow; flip a byte deep
  // in the data region (past header + directory + checksum table).
  std::vector<uint8_t> bad = image.value();
  bad[bad.size() / 2] ^= 0xff;
  auto opened = OpenCollectionV3FromBuffer(std::move(bad));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
}

TEST(SnapshotV3Test, TruncatedAndGarbageImagesAreRejectedCleanly) {
  GraphCollection c = SampleCollection();
  auto image = BuildCollectionV3(c, 1);
  ASSERT_TRUE(image.ok());

  std::vector<uint8_t> truncated = image.value();
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(OpenCollectionV3FromBuffer(std::move(truncated)).ok());

  EXPECT_FALSE(OpenCollectionV3FromBuffer({}).ok());
  EXPECT_FALSE(OpenCollectionV3FromBuffer(
                   std::vector<uint8_t>(8192, 0xab)).ok());
}

TEST(SnapshotV3Test, EmptyCollectionRoundTrips) {
  GraphCollection c("nothing");
  auto image = BuildCollectionV3(c, 0);
  ASSERT_TRUE(image.ok());
  auto opened = OpenCollectionV3FromBuffer(image.value());
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  EXPECT_EQ(opened.value().name, "nothing");
  EXPECT_TRUE(opened.value().snapshots.empty());
  auto loaded = MaterializeGraphs(opened.value());
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().empty());
}

TEST(SnapshotV3Test, MappedSnapshotAnswersStructureQueries) {
  GraphCollection c = SampleCollection();
  auto image = BuildCollectionV3(c, 1);
  ASSERT_TRUE(image.ok());
  auto opened = OpenCollectionV3FromBuffer(image.value());
  ASSERT_TRUE(opened.ok());

  const GraphSnapshot& s = *opened.value().snapshots[0];
  const Graph& g = c[0];
  NodeId a = g.FindNode("a"), b = g.FindNode("b"), d = g.FindNode("d");
  ASSERT_NE(a, kInvalidNode);
  EXPECT_TRUE(s.HasEdgeBetween(a, b));
  EXPECT_FALSE(s.HasEdgeBetween(a, d));
  EXPECT_EQ(s.EdgesBetween(a, b).size(), 2u);  // Parallel edges e1, e2.
  EXPECT_EQ(s.FindFirstEdge(a, b), g.FindEdge(a, b));

  SymbolId weight = SymbolTable::Global().Lookup("weight");
  const GraphSnapshot::Column* col = s.NodeColumn(weight);
  ASSERT_NE(col, nullptr);
  const Value* v = col->Find(a);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, Value(1.5));
}

TEST(SnapshotV3Test, MappedColumnLookupsMatchLinearScan) {
  // Columns covering every id, a dense prefix then a gap, a gap first and
  // a single entry, looked up for every id in [-1, n] on the Graph-built
  // snapshot and on the v3-opened one, against a linear scan. (Columns
  // exist only for attributes some node carries, so no file holds an
  // empty one; graph_snapshot_test checks that case on a built column.)
  const std::vector<std::pair<const char*, std::vector<int32_t>>> shapes = {
      {"v3lk_dense", {0, 1, 2, 3, 4, 5, 6, 7}},
      {"v3lk_prefix_gap", {0, 1, 2, 5}},
      {"v3lk_gap_first", {3, 4, 6}},
      {"v3lk_single_last", {7}},
      {"v3lk_single_first", {0}},
  };
  constexpr int32_t kNodes = 8;
  Graph g("lookups");
  for (int32_t v = 0; v < kNodes; ++v) g.AddNode("n" + std::to_string(v));
  for (const auto& [attr, ids] : shapes) {
    for (int32_t v : ids) {
      g.node(v).attrs.Set(attr, v % 2 == 0 ? Value("s" + std::to_string(v))
                                           : Value(int64_t{v}));
    }
  }
  GraphCollection c("db");
  c.Add(std::move(g));
  auto image = BuildCollectionV3(c, 1);
  ASSERT_TRUE(image.ok()) << image.status();
  auto opened = OpenCollectionV3FromBuffer(image.value());
  ASSERT_TRUE(opened.ok()) << opened.status();
  const GraphSnapshot& mapped = *opened.value().snapshots[0];
  ASSERT_TRUE(mapped.is_mapped());
  std::shared_ptr<const GraphSnapshot> built = c[0].snapshot();
  for (const GraphSnapshot* snap : {built.get(), &mapped}) {
    for (const auto& [attr, ids] : shapes) {
      const GraphSnapshot::Column* col =
          snap->NodeColumn(SymbolTable::Global().Lookup(attr));
      ASSERT_NE(col, nullptr) << attr;
      ASSERT_EQ(std::vector<int32_t>(col->ids.begin(), col->ids.end()), ids);
      for (int32_t id = -1; id <= kNodes; ++id) {
        const Value* want = nullptr;
        SymbolId want_sym = kNoSymbol;
        for (size_t j = 0; j < col->ids.size(); ++j) {
          if (col->ids[j] == id) {
            want = &col->values[j];
            want_sym = col->val_syms[j];
          }
        }
        const std::string where = std::string(attr) + " id " +
                                  std::to_string(id) +
                                  (snap->is_mapped() ? " mapped" : " built");
        EXPECT_EQ(col->Find(id), want) << where;
        EXPECT_EQ(col->FindValSym(id), want_sym) << where;
      }
    }
  }
}

}  // namespace
}  // namespace graphql::io
