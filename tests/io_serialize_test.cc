#include "io/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "motif/deriver.h"
#include "workload/dblp.h"
#include "workload/erdos_renyi.h"

namespace graphql::io {
namespace {

Graph SampleGraph() {
  auto g = motif::GraphFromSource(R"(
    graph G <venue="SIGMOD", year=2008> {
      node a <label="A", weight=1.5>;
      node b <author name="B \"the\" builder">;
      node c;
      edge e1 (a, b) <w=3>;
      edge (b, c);
    })");
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

void ExpectEquivalent(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  EXPECT_EQ(a.directed(), b.directed());
  EXPECT_EQ(a.attrs(), b.attrs());
  for (size_t v = 0; v < a.NumNodes(); ++v) {
    EXPECT_EQ(a.node(static_cast<NodeId>(v)).attrs,
              b.node(static_cast<NodeId>(v)).attrs)
        << "node " << v;
  }
  for (size_t e = 0; e < a.NumEdges(); ++e) {
    EXPECT_EQ(a.edge(static_cast<EdgeId>(e)).src,
              b.edge(static_cast<EdgeId>(e)).src);
    EXPECT_EQ(a.edge(static_cast<EdgeId>(e)).dst,
              b.edge(static_cast<EdgeId>(e)).dst);
    EXPECT_EQ(a.edge(static_cast<EdgeId>(e)).attrs,
              b.edge(static_cast<EdgeId>(e)).attrs);
  }
}

TEST(TextSerializeTest, RoundTripPreservesEverything) {
  Graph g = SampleGraph();
  std::string text = WriteGraphText(g);
  auto back = ReadGraphText(text);
  ASSERT_TRUE(back.ok()) << back.status() << "\n" << text;
  ExpectEquivalent(g, *back);
  // Named entities keep their names.
  EXPECT_NE(back->FindNode("a"), kInvalidNode);
  EXPECT_NE(back->FindEdgeByName("e1"), kInvalidEdge);
}

TEST(TextSerializeTest, AnonymousNodesGetNames) {
  Graph g;
  g.AddNode();
  g.AddNode();
  g.AddEdge(0, 1);
  std::string text = WriteGraphText(g);
  auto back = ReadGraphText(text);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->NumNodes(), 2u);
  EXPECT_EQ(back->NumEdges(), 1u);
}

TEST(TextSerializeTest, CollidingAndInvalidNamesSanitized) {
  Graph g;
  g.AddNode("x");
  g.AddNode("x");          // Duplicate.
  g.AddNode("bad name!");  // Not an identifier.
  g.AddNode("graph");      // Keyword.
  std::string text = WriteGraphText(g);
  auto back = ReadGraphText(text);
  ASSERT_TRUE(back.ok()) << back.status() << "\n" << text;
  EXPECT_EQ(back->NumNodes(), 4u);
}

TEST(TextSerializeTest, BooleanAttributesRoundTrip) {
  Graph g;
  AttrTuple t;
  t.Set("flag", Value(true));
  t.Set("off", Value(false));
  g.AddNode("a", t);
  auto back = ReadGraphText(WriteGraphText(g));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->node(0).attrs.GetOrNull("flag"), Value(true));
  EXPECT_EQ(back->node(0).attrs.GetOrNull("off"), Value(false));
}

TEST(TextSerializeTest, DoublePrecisionPreserved) {
  Graph g;
  AttrTuple t;
  t.Set("x", Value(0.1));
  t.Set("y", Value(12345.0));  // Integral double must stay a double.
  g.AddNode("a", t);
  auto back = ReadGraphText(WriteGraphText(g));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(back->node(0).attrs.GetOrNull("x").is_double());
  EXPECT_DOUBLE_EQ(back->node(0).attrs.GetOrNull("x").AsDouble(), 0.1);
  EXPECT_TRUE(back->node(0).attrs.GetOrNull("y").is_double());
}

TEST(TextSerializeTest, DirectedGraphMarker) {
  Graph g("D", /*directed=*/true);
  NodeId a = g.AddNode("a");
  NodeId b = g.AddNode("b");
  g.AddEdge(a, b);
  auto back = ReadGraphText(WriteGraphText(g));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(back->directed());
  EXPECT_TRUE(back->HasEdgeBetween(0, 1));
  EXPECT_FALSE(back->HasEdgeBetween(1, 0));
  // The marker attribute does not leak into the attrs.
  EXPECT_FALSE(back->attrs().Has("__directed"));
}

TEST(TextSerializeTest, CollectionRoundTrip) {
  Rng rng(1);
  workload::DblpOptions opts;
  opts.num_papers = 10;
  GraphCollection c = workload::MakeDblpCollection(opts, &rng);
  auto back = ReadCollectionText(WriteCollectionText(c));
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->size(), c.size());
  for (size_t i = 0; i < c.size(); ++i) {
    ExpectEquivalent(c[i], (*back)[i]);
  }
}

TEST(BinarySerializeTest, RoundTripPreservesEverything) {
  Graph g = SampleGraph();
  std::stringstream stream;
  ASSERT_TRUE(WriteGraphBinary(g, &stream).ok());
  auto back = ReadGraphBinary(&stream);
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectEquivalent(g, *back);
  // Binary preserves ALL names verbatim, including non-identifiers.
  EXPECT_EQ(back->node(0).name, g.node(0).name);
}

TEST(BinarySerializeTest, PreservesWeirdNames) {
  Graph g;
  g.AddNode("bad name!");
  std::stringstream stream;
  ASSERT_TRUE(WriteGraphBinary(g, &stream).ok());
  auto back = ReadGraphBinary(&stream);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->node(0).name, "bad name!");
}

TEST(BinarySerializeTest, BadMagicRejected) {
  std::stringstream stream("not a graph at all");
  auto back = ReadGraphBinary(&stream);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kParseError);
  // Only version 2 is read: a stream in the retired inline-string version
  // 1 is rejected by its version byte.
  std::string v1 = "GQLB";
  v1 += '\x01';  // Version.
  v1 += '\x00';  // Undirected.
  v1.append(4, '\x00');  // Empty name.
  std::stringstream old(v1);
  back = ReadGraphBinary(&old);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kParseError);
  EXPECT_EQ(back.status().message(), "unsupported binary graph version 1");
}

TEST(BinarySerializeTest, TruncationRejected) {
  Graph g = SampleGraph();
  std::stringstream stream;
  ASSERT_TRUE(WriteGraphBinary(g, &stream).ok());
  std::string data = stream.str();
  std::stringstream cut(data.substr(0, data.size() / 2));
  auto back = ReadGraphBinary(&cut);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kParseError);
}

TEST(BinarySerializeTest, OverpromisingStringLengthRejected) {
  // A string-table entry whose length prefix is beyond the remaining bytes
  // (2^20, one byte follows) or beyond the string cap (2^31-1).
  for (const char* length : {"\x00\x00\x10\x00", "\xff\xff\xff\x7f"}) {
    std::string data;
    data += "GQLB";
    data += '\x02';
    data += '\x00';
    data += std::string("\x01\x00\x00\x00", 4);  // 1 string in the table.
    data += std::string(length, 4);               // Its length...
    data += "x";                                  // ... but one byte follows.
    std::stringstream stream(data);
    auto back = ReadGraphBinary(&stream);
    ASSERT_FALSE(back.ok());
    EXPECT_EQ(back.status().code(), StatusCode::kParseError);
  }
}

TEST(BinarySerializeTest, V2DeduplicatesStrings) {
  // 100 nodes sharing one tag and one attribute key/value must store those
  // strings once. A node then costs 17 bytes (name and tag references, one
  // column entry of id, kind and value reference), so the stream stays
  // under 20 bytes a node; one inline copy per node of any of the three
  // strings (12 bytes or more) would break that.
  Graph g;
  for (int i = 0; i < 100; ++i) {
    AttrTuple t("espresso-machine");
    t.Set("manufacturer", Value(std::string("acme-corporation-intl")));
    g.AddNode("", t);
  }
  std::stringstream v2;
  ASSERT_TRUE(WriteGraphBinary(g, &v2).ok());
  EXPECT_LT(v2.str().size(), 100u * 20);
  auto back = ReadGraphBinary(&v2);
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectEquivalent(g, *back);
}

TEST(BinarySerializeTest, TruncatedStringTableRejected) {
  // A v2 header promising 2^20 table entries with no payload must fail the
  // remaining-bytes check before any proportional allocation.
  std::string data;
  data += "GQLB";
  data += '\x02';                              // Version 2.
  data += '\x00';                              // Undirected.
  data += std::string("\x00\x00\x10\x00", 4);  // 2^20 strings (LE)...
  std::stringstream stream(data);              // ...and nothing else.
  auto back = ReadGraphBinary(&stream);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kParseError);
}

TEST(BinarySerializeTest, OutOfRangeStringRefRejected) {
  // A v2 stream whose graph-name reference points past the (one-entry)
  // string table must be rejected, not indexed.
  std::string data;
  data += "GQLB";
  data += '\x02';
  data += '\x00';
  data += std::string("\x01\x00\x00\x00", 4);  // 1 string in the table.
  data.append(4, '\x00');                      // That string: length 0.
  data += std::string("\x07\x00\x00\x00", 4);  // Graph name ref = 7.
  std::stringstream stream(data);
  auto back = ReadGraphBinary(&stream);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kParseError);
}

TEST(BinarySerializeTest, V2OverpromisingNodeCountRejected) {
  // Valid table and name, then a node count far beyond the payload.
  std::string data;
  data += "GQLB";
  data += '\x02';
  data += '\x00';
  data += std::string("\x01\x00\x00\x00", 4);  // 1 string: "".
  data.append(4, '\x00');
  data.append(4, '\x00');                      // Name ref = 0.
  data.append(4, '\x00');                      // Graph tag ref = 0.
  data.append(4, '\x00');                      // Graph attr count = 0.
  data += std::string("\x00\x00\x00\x80", 4);  // num_nodes = 2^31.
  data.append(4, '\x00');                      // num_edges = 0.
  std::stringstream stream(data);
  auto back = ReadGraphBinary(&stream);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kParseError);
}

TEST(BinarySerializeTest, CorruptionSweepNeverCrashes) {
  // Bit-flips and truncations at every offset of a serialized collection
  // must either round-trip to a detectably different value or fail with a
  // ParseError — never crash, hang, or allocate absurd amounts.
  Rng rng(11);
  GraphCollection c("sweep");
  for (int i = 0; i < 3; ++i) {
    workload::ErdosRenyiOptions opts;
    opts.num_nodes = 6;
    opts.num_edges = 8;
    opts.num_labels = 2;
    c.Add(workload::MakeErdosRenyi(opts, &rng));
  }
  std::stringstream stream;
  ASSERT_TRUE(WriteCollectionBinary(c, &stream).ok());
  const std::string data = stream.str();

  // Truncations at every prefix length.
  for (size_t cut = 0; cut < data.size(); ++cut) {
    std::stringstream in(data.substr(0, cut));
    auto back = ReadCollectionBinary(&in);
    if (!back.ok()) {
      EXPECT_EQ(back.status().code(), StatusCode::kParseError)
          << "cut at " << cut << ": " << back.status();
    }
  }
  // Single-bit flips across the stream (step 3 keeps the sweep fast while
  // still hitting every region: magics, versions, counts, payloads).
  for (size_t pos = 0; pos < data.size(); pos += 3) {
    for (int bit = 0; bit < 8; bit += 4) {
      std::string corrupt = data;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 << bit));
      std::stringstream in(corrupt);
      auto back = ReadCollectionBinary(&in);
      if (!back.ok()) {
        EXPECT_EQ(back.status().code(), StatusCode::kParseError)
            << "flip at " << pos << " bit " << bit << ": " << back.status();
      }
    }
  }
}

TEST(BinarySerializeTest, CollectionRoundTrip) {
  Rng rng(7);
  GraphCollection c("mols");
  for (int i = 0; i < 5; ++i) {
    workload::ErdosRenyiOptions opts;
    opts.num_nodes = 8;
    opts.num_edges = 12;
    opts.num_labels = 3;
    c.Add(workload::MakeErdosRenyi(opts, &rng));
  }
  std::stringstream stream;
  ASSERT_TRUE(WriteCollectionBinary(c, &stream).ok());
  auto back = ReadCollectionBinary(&stream);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->size(), 5u);
  EXPECT_EQ(back->name(), "mols");
  for (size_t i = 0; i < c.size(); ++i) {
    ExpectEquivalent(c[i], (*back)[i]);
  }
}

TEST(FileIoTest, SaveAndLoadBothFormats) {
  Rng rng(3);
  workload::DblpOptions opts;
  opts.num_papers = 6;
  GraphCollection c = workload::MakeDblpCollection(opts, &rng);
  for (const char* path : {"/tmp/gql_io_test.gql", "/tmp/gql_io_test.gqlb"}) {
    ASSERT_TRUE(SaveCollection(c, path).ok()) << path;
    auto back = LoadCollection(path);
    ASSERT_TRUE(back.ok()) << back.status() << " " << path;
    ASSERT_EQ(back->size(), c.size()) << path;
    for (size_t i = 0; i < c.size(); ++i) {
      ExpectEquivalent(c[i], (*back)[i]);
    }
    std::remove(path);
  }
}

TEST(FileIoTest, MissingFileFails) {
  auto r = LoadCollection("/tmp/definitely_missing_gql_file.gql");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

/// Round-trip property over generated graphs.
class SerializePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SerializePropertyTest, TextAndBinaryRoundTrip) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 65537 + 13);
  workload::ErdosRenyiOptions opts;
  opts.num_nodes = 30;
  opts.num_edges = 80;
  opts.num_labels = 5;
  Graph g = workload::MakeErdosRenyi(opts, &rng);
  auto text_back = ReadGraphText(WriteGraphText(g));
  ASSERT_TRUE(text_back.ok()) << text_back.status();
  ExpectEquivalent(g, *text_back);
  std::stringstream stream;
  ASSERT_TRUE(WriteGraphBinary(g, &stream).ok());
  auto bin_back = ReadGraphBinary(&stream);
  ASSERT_TRUE(bin_back.ok());
  ExpectEquivalent(g, *bin_back);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SerializePropertyTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace graphql::io
