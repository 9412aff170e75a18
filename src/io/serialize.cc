#include "io/serialize.h"

#include <cctype>
#include <cstdint>
#include <deque>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/strings.h"
#include "motif/deriver.h"

namespace graphql::io {

namespace {

constexpr char kDirectedMarker[] = "__directed";

bool IsIdentifierSegment(std::string_view s) {
  if (s.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_') {
    return false;
  }
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
  }
  // Keywords cannot serve as names.
  static const char* kKeywords[] = {"graph", "node",  "edge",   "unify",
                                    "export", "where", "for",    "exhaustive",
                                    "in",     "doc",   "let",    "return",
                                    "as",     "true",  "false"};
  for (const char* kw : kKeywords) {
    if (s == kw) return false;
  }
  return true;
}

/// Node names may be dotted paths of identifier segments; edge names must
/// be plain identifiers.
bool IsValidNodeName(std::string_view s) {
  if (s.empty()) return false;
  for (const std::string& part : Split(s, '.')) {
    if (!IsIdentifierSegment(part)) return false;
  }
  return true;
}

std::string ValueText(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kBool:
      return v.AsBool() ? "true" : "false";
    case Value::Kind::kInt:
      return std::to_string(v.AsInt());
    case Value::Kind::kDouble: {
      std::ostringstream os;
      os.precision(17);
      os << v.AsDouble();
      std::string s = os.str();
      // Ensure the token re-lexes as a float, not an int.
      if (s.find('.') == std::string::npos &&
          s.find('e') == std::string::npos &&
          s.find("inf") == std::string::npos &&
          s.find("nan") == std::string::npos) {
        s += ".0";
      }
      return s;
    }
    case Value::Kind::kString:
      return "\"" + EscapeStringLiteral(v.AsString()) + "\"";
    case Value::Kind::kNull:
      return "";  // Null attributes are dropped (absent == null).
  }
  return "";
}

std::string TupleText(const AttrTuple& attrs) {
  if (attrs.empty()) return "";
  std::string out = "<";
  if (attrs.has_tag()) out += attrs.tag();
  bool wrote_attr = false;
  for (const auto& [k, v] : attrs.attrs()) {
    std::string value = ValueText(v);
    if (value.empty()) continue;  // Null.
    if (wrote_attr) {
      out += ", ";
    } else if (attrs.has_tag()) {
      out += " ";
    }
    wrote_attr = true;
    out += k;
    out += "=";
    out += value;
  }
  out += ">";
  return out == "<>" ? "" : out;
}

}  // namespace

std::string WriteGraphText(const Graph& g) {
  // Assign parseable, unique names: originals kept when valid; anonymous
  // or colliding entities get generated ones.
  std::vector<std::string> node_names(g.NumNodes());
  std::unordered_set<std::string> used;
  for (size_t v = 0; v < g.NumNodes(); ++v) {
    const std::string& name = g.node(static_cast<NodeId>(v)).name;
    if (IsValidNodeName(name) && used.insert(name).second) {
      node_names[v] = name;
    }
  }
  size_t counter = 0;
  for (size_t v = 0; v < g.NumNodes(); ++v) {
    if (!node_names[v].empty()) continue;
    std::string candidate;
    do {
      candidate = "_n" + std::to_string(counter++);
    } while (!used.insert(candidate).second);
    node_names[v] = candidate;
  }

  std::string out = "graph";
  std::string gname = g.name();
  if (IsIdentifierSegment(gname)) {
    out += " ";
    out += gname;
  }
  AttrTuple gattrs = g.attrs();
  if (g.directed()) gattrs.Set(kDirectedMarker, Value(int64_t{1}));
  std::string gt = TupleText(gattrs);
  if (!gt.empty()) {
    out += " ";
    out += gt;
  }
  out += " {\n";
  for (size_t v = 0; v < g.NumNodes(); ++v) {
    out += "  node " + node_names[v];
    std::string t = TupleText(g.node(static_cast<NodeId>(v)).attrs);
    if (!t.empty()) {
      out += " ";
      out += t;
    }
    out += ";\n";
  }
  std::unordered_set<std::string> used_edges;
  size_t edge_counter = 0;
  for (size_t e = 0; e < g.NumEdges(); ++e) {
    const Graph::Edge& ed = g.edge(static_cast<EdgeId>(e));
    std::string ename = ed.name;
    if (!IsIdentifierSegment(ename) || !used_edges.insert(ename).second) {
      do {
        ename = "_e" + std::to_string(edge_counter++);
      } while (!used_edges.insert(ename).second);
    }
    out += "  edge " + ename + " (" + node_names[ed.src] + ", " +
           node_names[ed.dst] + ")";
    std::string t = TupleText(ed.attrs);
    if (!t.empty()) {
      out += " ";
      out += t;
    }
    out += ";\n";
  }
  out += "}";
  return out;
}

std::string WriteCollectionText(const GraphCollection& c) {
  std::string out;
  for (const Graph& g : c) {
    out += WriteGraphText(g);
    out += ";\n";
  }
  return out;
}

namespace {

/// Applies the directedness marker: rebuilds the parsed (undirected)
/// structure as a directed graph when the marker is present.
Graph ApplyDirectedMarker(Graph g) {
  auto marker = g.attrs().Get(kDirectedMarker);
  if (!marker) return g;
  Graph out(g.name(), /*directed=*/true);
  AttrTuple gattrs = g.attrs();
  gattrs.Erase(kDirectedMarker);
  out.attrs() = std::move(gattrs);
  out.Reserve(g.NumNodes(), g.NumEdges());
  for (size_t v = 0; v < g.NumNodes(); ++v) {
    const Graph::Node& n = g.node(static_cast<NodeId>(v));
    out.AddNode(n.name, n.attrs);
  }
  for (size_t e = 0; e < g.NumEdges(); ++e) {
    const Graph::Edge& ed = g.edge(static_cast<EdgeId>(e));
    out.AddEdge(ed.src, ed.dst, ed.name, ed.attrs);
  }
  return out;
}

}  // namespace

Result<Graph> ReadGraphText(std::string_view text) {
  GQL_ASSIGN_OR_RETURN(Graph g, motif::GraphFromSource(text));
  return ApplyDirectedMarker(std::move(g));
}

Result<GraphCollection> ReadCollectionText(std::string_view text) {
  GQL_ASSIGN_OR_RETURN(std::vector<Graph> graphs,
                       motif::GraphsFromProgramSource(text));
  GraphCollection out;
  for (Graph& g : graphs) out.Add(ApplyDirectedMarker(std::move(g)));
  return out;
}

// ---------------------------------------------------------------------------
// Binary format.
// ---------------------------------------------------------------------------

namespace {

constexpr char kMagic[4] = {'G', 'Q', 'L', 'B'};
constexpr uint8_t kVersionV2 = 2;  ///< String table + columnar records.

void WriteU32(std::ostream* out, uint32_t v) {
  char buf[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
                 static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  out->write(buf, 4);
}

void WriteU64(std::ostream* out, uint64_t v) {
  WriteU32(out, static_cast<uint32_t>(v));
  WriteU32(out, static_cast<uint32_t>(v >> 32));
}

void WriteString(std::ostream* out, std::string_view s) {
  WriteU32(out, static_cast<uint32_t>(s.size()));
  out->write(s.data(), static_cast<std::streamsize>(s.size()));
}

/// Bytes left before EOF in a seekable stream; -1 when the stream cannot
/// seek (validation is then skipped and truncation surfaces as a read
/// failure instead of an over-allocation).
int64_t RemainingBytes(std::istream* in) {
  std::streampos cur = in->tellg();
  if (cur == std::streampos(-1)) return -1;
  in->seekg(0, std::ios::end);
  std::streampos end = in->tellg();
  in->seekg(cur);
  if (end == std::streampos(-1) || end < cur) return -1;
  return static_cast<int64_t>(end - cur);
}

/// Rejects a count prefix that promises more elements than the remaining
/// bytes could possibly encode, BEFORE anything is allocated for them.
Status CheckCount(std::istream* in, uint64_t count, uint64_t min_bytes_each,
                  const char* what) {
  int64_t remaining = RemainingBytes(in);
  if (remaining >= 0 &&
      count * min_bytes_each > static_cast<uint64_t>(remaining)) {
    return Status::ParseError(std::string(what) +
                              " count exceeds remaining input");
  }
  return Status::OK();
}

Result<uint32_t> ReadU32(std::istream* in) {
  char buf[4];
  in->read(buf, 4);
  if (!*in) return Status::ParseError("truncated binary graph");
  return (static_cast<uint32_t>(static_cast<uint8_t>(buf[0]))) |
         (static_cast<uint32_t>(static_cast<uint8_t>(buf[1])) << 8) |
         (static_cast<uint32_t>(static_cast<uint8_t>(buf[2])) << 16) |
         (static_cast<uint32_t>(static_cast<uint8_t>(buf[3])) << 24);
}

Result<uint64_t> ReadU64(std::istream* in) {
  GQL_ASSIGN_OR_RETURN(uint32_t lo, ReadU32(in));
  GQL_ASSIGN_OR_RETURN(uint32_t hi, ReadU32(in));
  return (static_cast<uint64_t>(hi) << 32) | lo;
}

Result<std::string> ReadString(std::istream* in) {
  GQL_ASSIGN_OR_RETURN(uint32_t n, ReadU32(in));
  if (n > (1u << 30)) return Status::ParseError("oversized string");
  GQL_RETURN_IF_ERROR(CheckCount(in, n, 1, "string byte"));
  std::string s(n, '\0');
  in->read(s.data(), n);
  if (!*in) return Status::ParseError("truncated binary graph");
  return s;
}

// ---- Version 2: per-graph string table + columnar records. -----------------

/// Interns every distinct string once in first-use order; records hold
/// u32 references into the table.
class StringTableBuilder {
 public:
  uint32_t Ref(std::string_view s) {
    auto it = ids_.find(s);
    if (it != ids_.end()) return it->second;
    uint32_t id = static_cast<uint32_t>(strings_.size());
    strings_.emplace_back(s);
    ids_.emplace(strings_.back(), id);
    return id;
  }

  void Write(std::ostream* out) const {
    WriteU32(out, static_cast<uint32_t>(strings_.size()));
    for (const std::string& s : strings_) WriteString(out, s);
  }

 private:
  // Keys view into the deque-stable strings; no duplicate storage.
  std::deque<std::string> strings_;
  std::unordered_map<std::string_view, uint32_t> ids_;
};

/// Value with string payloads replaced by table references.
void WriteValueV2(std::ostream* out, const Value& v, StringTableBuilder* st) {
  out->put(static_cast<char>(v.kind()));
  switch (v.kind()) {
    case Value::Kind::kNull:
      break;
    case Value::Kind::kBool:
      out->put(v.AsBool() ? 1 : 0);
      break;
    case Value::Kind::kInt:
      WriteU64(out, static_cast<uint64_t>(v.AsInt()));
      break;
    case Value::Kind::kDouble: {
      double d = v.AsDouble();
      uint64_t bits;
      __builtin_memcpy(&bits, &d, sizeof(bits));
      WriteU64(out, bits);
      break;
    }
    case Value::Kind::kString:
      WriteU32(out, st->Ref(v.AsString()));
      break;
  }
}

void WriteTupleV2(std::ostream* out, const AttrTuple& attrs,
                  StringTableBuilder* st) {
  WriteU32(out, st->Ref(attrs.tag()));
  WriteU32(out, static_cast<uint32_t>(attrs.attrs().size()));
  for (const auto& [k, v] : attrs.attrs()) {
    WriteU32(out, st->Ref(k));
    WriteValueV2(out, v, st);
  }
}

/// Sparse attribute columns over a node or edge range: one column per
/// distinct attribute key (first-appearance order), each holding
/// (entity id, value) entries in ascending id order — the serialized twin
/// of GraphSnapshot's columnar attribute layout.
struct ColumnV2 {
  std::string key;
  std::vector<std::pair<uint32_t, const Value*>> entries;
};

template <typename GetTuple>
std::vector<ColumnV2> BuildColumns(size_t count, GetTuple get) {
  std::vector<ColumnV2> cols;
  for (size_t i = 0; i < count; ++i) {
    for (const auto& [k, v] : get(i).attrs()) {
      ColumnV2* col = nullptr;
      for (ColumnV2& c : cols) {
        if (c.key == k) {
          col = &c;
          break;
        }
      }
      if (col == nullptr) {
        cols.push_back(ColumnV2{k, {}});
        col = &cols.back();
      }
      col->entries.emplace_back(static_cast<uint32_t>(i), &v);
    }
  }
  return cols;
}

void WriteColumns(std::ostream* out, const std::vector<ColumnV2>& cols,
                  StringTableBuilder* st) {
  WriteU32(out, static_cast<uint32_t>(cols.size()));
  for (const ColumnV2& c : cols) {
    WriteU32(out, st->Ref(c.key));
    WriteU32(out, static_cast<uint32_t>(c.entries.size()));
    for (const auto& [id, v] : c.entries) {
      WriteU32(out, id);
      WriteValueV2(out, *v, st);
    }
  }
}

/// A table reference read off the wire; rejected unless it indexes the
/// table that was actually read (attacker-controlled indices never reach
/// operator[]).
Result<uint32_t> ReadRef(std::istream* in,
                         const std::vector<std::string>& table) {
  GQL_ASSIGN_OR_RETURN(uint32_t r, ReadU32(in));
  if (r >= table.size()) {
    return Status::ParseError("string table reference out of range");
  }
  return r;
}

Result<Value> ReadValueV2(std::istream* in,
                          const std::vector<std::string>& table) {
  int kind = in->get();
  if (kind == EOF) return Status::ParseError("truncated binary graph");
  switch (static_cast<Value::Kind>(kind)) {
    case Value::Kind::kNull:
      return Value();
    case Value::Kind::kBool: {
      int b = in->get();
      if (b == EOF) return Status::ParseError("truncated binary graph");
      return Value(b != 0);
    }
    case Value::Kind::kInt: {
      GQL_ASSIGN_OR_RETURN(uint64_t v, ReadU64(in));
      return Value(static_cast<int64_t>(v));
    }
    case Value::Kind::kDouble: {
      GQL_ASSIGN_OR_RETURN(uint64_t bits, ReadU64(in));
      double d;
      __builtin_memcpy(&d, &bits, sizeof(d));
      return Value(d);
    }
    case Value::Kind::kString: {
      GQL_ASSIGN_OR_RETURN(uint32_t r, ReadRef(in, table));
      return Value(table[r]);
    }
  }
  return Status::ParseError("unknown value kind in binary graph");
}

Result<AttrTuple> ReadTupleV2(std::istream* in,
                              const std::vector<std::string>& table) {
  GQL_ASSIGN_OR_RETURN(uint32_t tag_ref, ReadRef(in, table));
  AttrTuple attrs(table[tag_ref]);
  GQL_ASSIGN_OR_RETURN(uint32_t n, ReadU32(in));
  // Minimum encoding per attribute: 4-byte key ref + 1-byte value kind.
  GQL_RETURN_IF_ERROR(CheckCount(in, n, 5, "attribute"));
  for (uint32_t i = 0; i < n; ++i) {
    GQL_ASSIGN_OR_RETURN(uint32_t key_ref, ReadRef(in, table));
    GQL_ASSIGN_OR_RETURN(Value v, ReadValueV2(in, table));
    attrs.Set(table[key_ref], std::move(v));
  }
  return attrs;
}

/// Reads one column block and applies the entries via `set(id, key, value)`.
template <typename SetAttr>
Status ReadColumns(std::istream* in, const std::vector<std::string>& table,
                   uint32_t id_limit, const char* what, SetAttr set) {
  GQL_ASSIGN_OR_RETURN(uint32_t cols, ReadU32(in));
  // Minimum column: key ref + entry count.
  GQL_RETURN_IF_ERROR(CheckCount(in, cols, 8, what));
  for (uint32_t c = 0; c < cols; ++c) {
    GQL_ASSIGN_OR_RETURN(uint32_t key_ref, ReadRef(in, table));
    GQL_ASSIGN_OR_RETURN(uint32_t entries, ReadU32(in));
    // Minimum entry: 4-byte id + 1-byte value kind.
    GQL_RETURN_IF_ERROR(CheckCount(in, entries, 5, what));
    for (uint32_t i = 0; i < entries; ++i) {
      GQL_ASSIGN_OR_RETURN(uint32_t id, ReadU32(in));
      if (id >= id_limit) {
        return Status::ParseError(std::string(what) + " id out of range");
      }
      GQL_ASSIGN_OR_RETURN(Value v, ReadValueV2(in, table));
      set(id, table[key_ref], std::move(v));
    }
  }
  return Status::OK();
}

Result<Graph> ReadGraphBinaryV2Body(std::istream* in, bool directed) {
  // String table first; every later name/tag/key/string-value is a
  // validated reference into it.
  GQL_ASSIGN_OR_RETURN(uint32_t num_strings, ReadU32(in));
  // Minimum string: its 4-byte length prefix.
  GQL_RETURN_IF_ERROR(CheckCount(in, num_strings, 4, "string table entry"));
  std::vector<std::string> table;
  table.reserve(num_strings);
  for (uint32_t i = 0; i < num_strings; ++i) {
    GQL_ASSIGN_OR_RETURN(std::string s, ReadString(in));
    table.push_back(std::move(s));
  }

  GQL_ASSIGN_OR_RETURN(uint32_t name_ref, ReadRef(in, table));
  Graph g(table[name_ref], directed);
  GQL_ASSIGN_OR_RETURN(AttrTuple gattrs, ReadTupleV2(in, table));
  g.attrs() = std::move(gattrs);

  GQL_ASSIGN_OR_RETURN(uint32_t num_nodes, ReadU32(in));
  GQL_ASSIGN_OR_RETURN(uint32_t num_edges, ReadU32(in));
  // A node is at least a name ref + tag ref; an edge at least
  // src + dst + name ref + tag ref. Reject before reserving.
  GQL_RETURN_IF_ERROR(CheckCount(in, num_nodes, 8, "node"));
  GQL_RETURN_IF_ERROR(CheckCount(in, num_edges, 16, "edge"));
  g.Reserve(num_nodes, num_edges);

  std::vector<uint32_t> name_refs(num_nodes);
  for (uint32_t v = 0; v < num_nodes; ++v) {
    GQL_ASSIGN_OR_RETURN(name_refs[v], ReadRef(in, table));
  }
  for (uint32_t v = 0; v < num_nodes; ++v) {
    GQL_ASSIGN_OR_RETURN(uint32_t tag_ref, ReadRef(in, table));
    g.AddNode(table[name_refs[v]], AttrTuple(table[tag_ref]));
  }
  GQL_RETURN_IF_ERROR(ReadColumns(
      in, table, num_nodes, "node column",
      [&](uint32_t id, const std::string& key, Value v) {
        g.node(static_cast<NodeId>(id)).attrs.Set(key, std::move(v));
      }));

  std::vector<uint32_t> srcs(num_edges);
  std::vector<uint32_t> dsts(num_edges);
  for (uint32_t e = 0; e < num_edges; ++e) {
    GQL_ASSIGN_OR_RETURN(srcs[e], ReadU32(in));
    if (srcs[e] >= num_nodes) {
      return Status::ParseError("edge endpoint out of range");
    }
  }
  for (uint32_t e = 0; e < num_edges; ++e) {
    GQL_ASSIGN_OR_RETURN(dsts[e], ReadU32(in));
    if (dsts[e] >= num_nodes) {
      return Status::ParseError("edge endpoint out of range");
    }
  }
  std::vector<uint32_t> ename_refs(num_edges);
  for (uint32_t e = 0; e < num_edges; ++e) {
    GQL_ASSIGN_OR_RETURN(ename_refs[e], ReadRef(in, table));
  }
  for (uint32_t e = 0; e < num_edges; ++e) {
    GQL_ASSIGN_OR_RETURN(uint32_t tag_ref, ReadRef(in, table));
    g.AddEdge(static_cast<NodeId>(srcs[e]), static_cast<NodeId>(dsts[e]),
              table[ename_refs[e]], AttrTuple(table[tag_ref]));
  }
  GQL_RETURN_IF_ERROR(ReadColumns(
      in, table, num_edges, "edge column",
      [&](uint32_t id, const std::string& key, Value v) {
        g.edge(static_cast<EdgeId>(id)).attrs.Set(key, std::move(v));
      }));
  return g;
}

}  // namespace

Status WriteGraphBinary(const Graph& g, std::ostream* out) {
  out->write(kMagic, 4);
  out->put(static_cast<char>(kVersionV2));
  out->put(g.directed() ? 1 : 0);

  // Two passes: intern every string into the table in first-use order,
  // then write the table followed by the records referencing it. The
  // record bytes are buffered so the table (which the reader needs first)
  // can still lead the stream.
  StringTableBuilder st;
  std::ostringstream body;
  WriteU32(&body, st.Ref(g.name()));
  WriteTupleV2(&body, g.attrs(), &st);
  WriteU32(&body, static_cast<uint32_t>(g.NumNodes()));
  WriteU32(&body, static_cast<uint32_t>(g.NumEdges()));
  for (size_t v = 0; v < g.NumNodes(); ++v) {
    WriteU32(&body, st.Ref(g.node(static_cast<NodeId>(v)).name));
  }
  for (size_t v = 0; v < g.NumNodes(); ++v) {
    WriteU32(&body, st.Ref(g.node(static_cast<NodeId>(v)).attrs.tag()));
  }
  WriteColumns(&body,
               BuildColumns(g.NumNodes(),
                            [&](size_t v) -> const AttrTuple& {
                              return g.node(static_cast<NodeId>(v)).attrs;
                            }),
               &st);
  for (size_t e = 0; e < g.NumEdges(); ++e) {
    WriteU32(&body, static_cast<uint32_t>(g.edge(static_cast<EdgeId>(e)).src));
  }
  for (size_t e = 0; e < g.NumEdges(); ++e) {
    WriteU32(&body, static_cast<uint32_t>(g.edge(static_cast<EdgeId>(e)).dst));
  }
  for (size_t e = 0; e < g.NumEdges(); ++e) {
    WriteU32(&body, st.Ref(g.edge(static_cast<EdgeId>(e)).name));
  }
  for (size_t e = 0; e < g.NumEdges(); ++e) {
    WriteU32(&body, st.Ref(g.edge(static_cast<EdgeId>(e)).attrs.tag()));
  }
  WriteColumns(&body,
               BuildColumns(g.NumEdges(),
                            [&](size_t e) -> const AttrTuple& {
                              return g.edge(static_cast<EdgeId>(e)).attrs;
                            }),
               &st);

  st.Write(out);
  const std::string& bytes = body.str();
  out->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!*out) return Status::Internal("binary graph write failed");
  return Status::OK();
}

Result<Graph> ReadGraphBinary(std::istream* in) {
  char magic[4];
  in->read(magic, 4);
  if (!*in || __builtin_memcmp(magic, kMagic, 4) != 0) {
    return Status::ParseError("not a binary GraphQL graph (bad magic)");
  }
  int version = in->get();
  if (version != kVersionV2) {
    return Status::ParseError("unsupported binary graph version " +
                              std::to_string(version));
  }
  int directed = in->get();
  if (directed == EOF) {
    return Status::ParseError("truncated binary graph");
  }
  return ReadGraphBinaryV2Body(in, directed != 0);
}

Status WriteCollectionBinary(const GraphCollection& c, std::ostream* out) {
  out->write("GQLC", 4);
  WriteString(out, c.name());
  WriteU32(out, static_cast<uint32_t>(c.size()));
  for (const Graph& g : c) {
    GQL_RETURN_IF_ERROR(WriteGraphBinary(g, out));
  }
  return Status::OK();
}

Result<GraphCollection> ReadCollectionBinary(std::istream* in) {
  char magic[4];
  in->read(magic, 4);
  if (!*in || __builtin_memcmp(magic, "GQLC", 4) != 0) {
    return Status::ParseError(
        "not a binary GraphQL collection (bad magic)");
  }
  GQL_ASSIGN_OR_RETURN(std::string name, ReadString(in));
  GraphCollection c(std::move(name));
  GQL_ASSIGN_OR_RETURN(uint32_t n, ReadU32(in));
  // A member graph is at least magic+version+directed+name+tuple+counts.
  GQL_RETURN_IF_ERROR(CheckCount(in, n, 26, "member graph"));
  for (uint32_t i = 0; i < n; ++i) {
    GQL_ASSIGN_OR_RETURN(Graph g, ReadGraphBinary(in));
    c.Add(std::move(g));
  }
  return c;
}

namespace {

bool IsBinaryPath(const std::string& path) {
  return path.size() >= 5 && path.substr(path.size() - 5) == ".gqlb";
}

}  // namespace

Status SaveCollection(const GraphCollection& c, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::NotFound("cannot open '" + path + "' for write");
  if (IsBinaryPath(path)) return WriteCollectionBinary(c, &out);
  out << WriteCollectionText(c);
  if (!out) return Status::Internal("write to '" + path + "' failed");
  return Status::OK();
}

Result<GraphCollection> LoadCollection(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  if (IsBinaryPath(path)) return ReadCollectionBinary(&in);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ReadCollectionText(buffer.str());
}

}  // namespace graphql::io
