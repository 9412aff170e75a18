#include "io/snapshot_v3.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/symbols.h"
#include "io/serialize.h"

namespace graphql::io {

namespace {

using storage::PageFile;
using storage::PageFileWriter;

constexpr uint32_t kFormatVersion = 3;
constexpr uint32_t kCollectionMetaSection = 1;
constexpr uint32_t kSymbolTableSection = 2;
constexpr uint32_t kFirstGraphSection = 16;
constexpr uint32_t kNumArraySections = 13;  // Fixed-order array list below.
constexpr uint64_t kMaxIds = uint64_t{1} << 31;  // NodeId/EdgeId are int32.

// ---------------------------------------------------------------------------
// Little-endian buffer writer / hardened reader.
// ---------------------------------------------------------------------------

class BufWriter {
 public:
  void PutU8(uint8_t v) { bytes_.push_back(v); }
  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  void PutValue(const Value& v) {
    PutU8(static_cast<uint8_t>(v.kind()));
    switch (v.kind()) {
      case Value::Kind::kNull:
        break;
      case Value::Kind::kBool:
        PutU8(v.AsBool() ? 1 : 0);
        break;
      case Value::Kind::kInt:
        PutU64(static_cast<uint64_t>(v.AsInt()));
        break;
      case Value::Kind::kDouble: {
        uint64_t bits = 0;
        double d = v.AsDouble();
        std::memcpy(&bits, &d, sizeof(bits));
        PutU64(bits);
        break;
      }
      case Value::Kind::kString:
        PutString(v.AsString());
        break;
    }
  }
  std::vector<uint8_t> Take() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

/// Bounds-checked reader over one (already checksum-verified) section.
/// Every multi-byte read validates the remaining length first; every count
/// is validated against the bytes it implies before any allocation sized
/// by it (the repo's length-validated-alloc invariant).
class Cursor {
 public:
  explicit Cursor(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  size_t remaining() const { return bytes_.size() - pos_; }

  Status ReadU8(uint8_t* out) {
    if (remaining() < 1) return Truncated("u8");
    *out = bytes_[pos_++];
    return Status::OK();
  }
  Status ReadU32(uint32_t* out) {
    if (remaining() < 4) return Truncated("u32");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(bytes_[pos_ + i]) << (8 * i);
    pos_ += 4;
    *out = v;
    return Status::OK();
  }
  Status ReadU64(uint64_t* out) {
    uint32_t lo = 0, hi = 0;
    GQL_RETURN_IF_ERROR(ReadU32(&lo));
    GQL_RETURN_IF_ERROR(ReadU32(&hi));
    *out = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
    return Status::OK();
  }
  Status ReadI32(int32_t* out) {
    uint32_t v = 0;
    GQL_RETURN_IF_ERROR(ReadU32(&v));
    *out = static_cast<int32_t>(v);
    return Status::OK();
  }
  Status ReadString(std::string* out) {
    uint32_t len = 0;
    GQL_RETURN_IF_ERROR(ReadU32(&len));
    // Length validated against the remaining bytes before the string is
    // allocated: a hostile length word must not drive a huge allocation.
    if (len > remaining()) return Truncated("string");
    out->assign(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return Status::OK();
  }
  Status ReadValue(Value* out) {
    uint8_t kind = 0;
    GQL_RETURN_IF_ERROR(ReadU8(&kind));
    switch (static_cast<Value::Kind>(kind)) {
      case Value::Kind::kNull:
        *out = Value();
        return Status::OK();
      case Value::Kind::kBool: {
        uint8_t b = 0;
        GQL_RETURN_IF_ERROR(ReadU8(&b));
        *out = Value(b != 0);
        return Status::OK();
      }
      case Value::Kind::kInt: {
        uint64_t v = 0;
        GQL_RETURN_IF_ERROR(ReadU64(&v));
        *out = Value(static_cast<int64_t>(v));
        return Status::OK();
      }
      case Value::Kind::kDouble: {
        uint64_t bits = 0;
        GQL_RETURN_IF_ERROR(ReadU64(&bits));
        double d = 0;
        std::memcpy(&d, &bits, sizeof(d));
        *out = Value(d);
        return Status::OK();
      }
      case Value::Kind::kString: {
        std::string s;
        GQL_RETURN_IF_ERROR(ReadString(&s));
        *out = Value(std::move(s));
        return Status::OK();
      }
    }
    return Status::DataLoss("v3: unknown value kind " + std::to_string(kind));
  }
  /// Validates that `count` elements of `elem_bytes` fit in what remains.
  Status CheckCount(uint64_t count, size_t elem_bytes, const char* what) {
    if (elem_bytes != 0 && count > remaining() / elem_bytes) {
      return Status::DataLoss(std::string("v3: ") + what + " count " +
                              std::to_string(count) +
                              " exceeds remaining bytes");
    }
    return Status::OK();
  }

 private:
  static Status Truncated(const char* what) {
    return Status::DataLoss(std::string("v3: truncated ") + what);
  }

  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

template <typename T>
std::vector<uint8_t> BytesOf(std::span<const T> data) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<uint8_t> out(data.size_bytes());
  if (!out.empty()) std::memcpy(out.data(), data.data(), out.size());
  return out;
}

struct ColumnSectionIds {
  uint32_t ids = 0;
  uint32_t val_syms = 0;
  uint32_t values = 0;
};

}  // namespace

bool IsV3Path(const std::string& path) {
  return path.size() >= 5 && path.compare(path.size() - 5, 5, ".gqls") == 0;
}

Result<std::vector<uint8_t>> BuildCollectionV3(const GraphCollection& c,
                                               uint64_t store_version) {
  if (c.size() >= kMaxIds) {
    return Status::InvalidArgument("v3: collection too large");
  }
  PageFileWriter writer;
  uint32_t next_id = kFirstGraphSection;
  std::set<SymbolId> used_syms;
  auto note_sym = [&used_syms](SymbolId s) {
    if (s != kNoSymbol) used_syms.insert(s);
  };
  auto note_all = [&note_sym](std::span<const SymbolId> syms) {
    for (SymbolId s : syms) note_sym(s);
  };

  std::vector<std::pair<uint32_t, uint32_t>> graph_sections;  // (meta, blob)
  for (size_t gi = 0; gi < c.size(); ++gi) {
    const Graph& g = c[gi];
    std::shared_ptr<const GraphSnapshot> snap = g.snapshot();

    // The builder blob: the graph in (hardened, round-trip-exact) v2
    // binary form. Materialization re-reads this so attribute insertion
    // order and names survive bit-identically.
    std::ostringstream blob;
    GQL_RETURN_IF_ERROR(WriteGraphBinary(g, &blob));
    std::string blob_str = std::move(blob).str();

    note_sym(snap->graph_name_sym());
    note_sym(snap->graph_tag_sym());
    note_all(snap->raw_node_name_syms());
    note_all(snap->raw_node_tag_syms());
    note_all(snap->raw_node_label_syms());
    note_all(snap->raw_edge_name_syms());
    note_all(snap->raw_edge_tag_syms());
    for (const GraphSnapshot::AdjEntry& a : snap->raw_out_entries()) {
      note_sym(a.tag_sym);
    }
    for (const GraphSnapshot::AdjEntry& a : snap->raw_in_entries()) {
      note_sym(a.tag_sym);
    }
    for (SymbolId s : snap->labels_in_order()) note_sym(s);

    const uint32_t meta_id = next_id++;
    const uint32_t blob_id = next_id++;
    uint32_t array_ids[kNumArraySections];
    for (uint32_t& id : array_ids) id = next_id++;

    // Fixed array order (mirrored by the reader):
    //   0 node_name_sym  1 node_tag_sym  2 node_label_sym
    //   3 edge_name_sym  4 edge_tag_sym  5 edge_src  6 edge_dst
    //   7 out_offsets    8 out_entries   9 in_offsets  10 in_entries
    //  11 uniq_offsets  12 uniq_nbrs
    writer.AddSection(array_ids[0], BytesOf(snap->raw_node_name_syms()));
    writer.AddSection(array_ids[1], BytesOf(snap->raw_node_tag_syms()));
    writer.AddSection(array_ids[2], BytesOf(snap->raw_node_label_syms()));
    writer.AddSection(array_ids[3], BytesOf(snap->raw_edge_name_syms()));
    writer.AddSection(array_ids[4], BytesOf(snap->raw_edge_tag_syms()));
    writer.AddSection(array_ids[5], BytesOf(snap->raw_edge_src()));
    writer.AddSection(array_ids[6], BytesOf(snap->raw_edge_dst()));
    writer.AddSection(array_ids[7], BytesOf(snap->raw_out_offsets()));
    writer.AddSection(array_ids[8], BytesOf(snap->raw_out_entries()));
    writer.AddSection(array_ids[9], BytesOf(snap->raw_in_offsets()));
    writer.AddSection(array_ids[10], BytesOf(snap->raw_in_entries()));
    writer.AddSection(array_ids[11], BytesOf(snap->raw_uniq_offsets()));
    writer.AddSection(array_ids[12], BytesOf(snap->raw_uniq_nbrs()));

    auto emit_columns = [&](const std::vector<GraphSnapshot::Column>& cols) {
      std::vector<ColumnSectionIds> ids;
      // invariant-lint: allow(length-validated-alloc) writer side: cols is
      // the in-memory snapshot being emitted, not a decoded length field.
      ids.reserve(cols.size());
      for (const GraphSnapshot::Column& col : cols) {
        note_sym(col.attr_sym);
        for (SymbolId s : col.val_syms) note_sym(s);
        ColumnSectionIds sec;
        sec.ids = next_id++;
        sec.val_syms = next_id++;
        sec.values = next_id++;
        writer.AddSection(sec.ids, BytesOf(col.ids));
        writer.AddSection(sec.val_syms, BytesOf(col.val_syms));
        BufWriter values;
        values.PutU32(static_cast<uint32_t>(col.values.size()));
        for (const Value& v : col.values) values.PutValue(v);
        writer.AddSection(sec.values, values.Take());
        ids.push_back(sec);
      }
      return ids;
    };
    std::vector<ColumnSectionIds> node_cols = emit_columns(snap->node_columns());
    std::vector<ColumnSectionIds> edge_cols = emit_columns(snap->edge_columns());

    BufWriter meta;
    meta.PutU8(snap->directed() ? 1 : 0);
    meta.PutU64(snap->num_nodes());
    meta.PutU64(snap->num_edges());
    meta.PutU64(snap->source_version());
    meta.PutI32(snap->graph_name_sym());
    meta.PutI32(snap->graph_tag_sym());
    meta.PutU32(static_cast<uint32_t>(snap->labels_in_order().size()));
    for (SymbolId s : snap->labels_in_order()) meta.PutI32(s);
    for (uint32_t id : array_ids) meta.PutU32(id);
    auto put_columns = [&meta](const std::vector<GraphSnapshot::Column>& cols,
                               const std::vector<ColumnSectionIds>& ids) {
      meta.PutU32(static_cast<uint32_t>(cols.size()));
      for (size_t i = 0; i < cols.size(); ++i) {
        meta.PutI32(cols[i].attr_sym);
        meta.PutU64(cols[i].ids.size());
        meta.PutU32(ids[i].ids);
        meta.PutU32(ids[i].val_syms);
        meta.PutU32(ids[i].values);
      }
    };
    put_columns(snap->node_columns(), node_cols);
    put_columns(snap->edge_columns(), edge_cols);

    writer.AddSection(meta_id, meta.Take());
    writer.AddSection(blob_id,
                      std::vector<uint8_t>(blob_str.begin(), blob_str.end()));
    graph_sections.emplace_back(meta_id, blob_id);
  }

  // Symbol table: (written id, text) in ascending id order for every
  // symbol the file references.
  SymbolTable& syms = SymbolTable::Global();
  BufWriter symtab;
  symtab.PutU32(static_cast<uint32_t>(used_syms.size()));
  for (SymbolId s : used_syms) {
    symtab.PutI32(s);
    symtab.PutString(syms.Name(s));
  }
  writer.AddSection(kSymbolTableSection, symtab.Take());

  BufWriter cmeta;
  cmeta.PutU32(kFormatVersion);
  cmeta.PutU32(static_cast<uint32_t>(c.size()));
  cmeta.PutU64(store_version);
  cmeta.PutString(c.name());
  for (const auto& [meta_id, blob_id] : graph_sections) {
    cmeta.PutU32(meta_id);
    cmeta.PutU32(blob_id);
  }
  writer.AddSection(kCollectionMetaSection, cmeta.Take());

  return writer.Build();
}

Status WriteCollectionV3(const GraphCollection& c, uint64_t store_version,
                         const std::string& path) {
  Result<std::vector<uint8_t>> image = BuildCollectionV3(c, store_version);
  GQL_RETURN_IF_ERROR(image.status());
  return storage::AtomicWriteFile(path, image.value());
}

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

namespace {

/// Keeps everything a mapped snapshot's spans can point at alive: the page
/// file plus any owned arrays produced by the symbol-translation fallback.
/// Handed to GraphSnapshot as its type-erased backing.
struct SnapshotBacking {
  std::shared_ptr<PageFile> file;
  std::vector<std::vector<SymbolId>> sym_arrays;
  std::vector<std::vector<GraphSnapshot::AdjEntry>> adj_arrays;
};

/// Open-time state for resolving the file's written SymbolIds against the
/// current process table.
struct SymbolResolution {
  bool identical = true;  ///< Every written id interned back to itself.
  std::unordered_map<SymbolId, SymbolId> to_current;
};

Status DecodeSymbolTable(std::span<const uint8_t> bytes,
                         SymbolResolution* out) {
  Cursor cur(bytes);
  uint32_t count = 0;
  GQL_RETURN_IF_ERROR(cur.ReadU32(&count));
  // Minimum entry: i32 id + u32 empty-string length.
  GQL_RETURN_IF_ERROR(cur.CheckCount(count, 8, "symbol table"));
  SymbolTable& syms = SymbolTable::Global();
  out->to_current.reserve(count);
  SymbolId prev = kNoSymbol;
  for (uint32_t i = 0; i < count; ++i) {
    SymbolId written = kNoSymbol;
    std::string text;
    GQL_RETURN_IF_ERROR(cur.ReadI32(&written));
    GQL_RETURN_IF_ERROR(cur.ReadString(&text));
    if (written <= prev) {
      return Status::DataLoss("v3: symbol table ids not ascending");
    }
    prev = written;
    SymbolId current = syms.Intern(text);
    if (current != written) out->identical = false;
    if (!out->to_current.emplace(written, current).second) {
      return Status::DataLoss("v3: duplicate symbol id");
    }
  }
  return Status::OK();
}

/// Fetches a section and checks its exact byte length; returns a typed
/// view over the (page-aligned, checksum-verified) bytes.
template <typename T>
Result<std::span<const T>> TypedSection(const PageFile& file, uint32_t id,
                                        uint64_t count, const char* what) {
  Result<std::span<const uint8_t>> sec = file.Section(id);
  GQL_RETURN_IF_ERROR(sec.status());
  if (sec.value().size() != count * sizeof(T)) {
    return Status::DataLoss(std::string("v3: section '") + what +
                            "' has wrong length");
  }
  return std::span<const T>(reinterpret_cast<const T*>(sec.value().data()),
                            static_cast<size_t>(count));
}

Status ValidateOffsets(std::span<const uint32_t> offsets, uint64_t entries,
                       const char* what) {
  if (offsets.empty() || offsets.front() != 0) {
    return Status::DataLoss(std::string("v3: ") + what +
                            " offsets must start at 0");
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return Status::DataLoss(std::string("v3: ") + what +
                              " offsets not monotonic");
    }
  }
  if (offsets.back() != entries) {
    return Status::DataLoss(std::string("v3: ") + what +
                            " offsets do not cover the entry array");
  }
  return Status::OK();
}

Status ValidateAdjacency(std::span<const uint32_t> offsets,
                         std::span<const GraphSnapshot::AdjEntry> entries,
                         uint64_t num_nodes, uint64_t num_edges,
                         const char* what) {
  GQL_RETURN_IF_ERROR(ValidateOffsets(offsets, entries.size(), what));
  for (size_t v = 0; v + 1 < offsets.size(); ++v) {
    NodeId prev = -1;
    for (uint32_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const GraphSnapshot::AdjEntry& a = entries[i];
      if (a.node < 0 || static_cast<uint64_t>(a.node) >= num_nodes ||
          a.edge < 0 || static_cast<uint64_t>(a.edge) >= num_edges) {
        return Status::DataLoss(std::string("v3: ") + what +
                                " entry out of range");
      }
      // Binary searches (HasEdgeBetween/EdgesBetween) rely on sorted runs.
      if (a.node < prev) {
        return Status::DataLoss(std::string("v3: ") + what +
                                " run not sorted by neighbor");
      }
      prev = a.node;
    }
  }
  return Status::OK();
}

/// Translated copy of a symbol array (fallback when identity failed).
Status TranslateSyms(std::span<const SymbolId> in,
                     const SymbolResolution& res,
                     std::vector<SymbolId>* out) {
  // invariant-lint: allow(length-validated-alloc) `in` spans a section the
  // pager already bounds-checked and CRC-verified; its length is capped by
  // the file size, not by a decoded count field.
  out->resize(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    if (in[i] == kNoSymbol) {
      (*out)[i] = kNoSymbol;
      continue;
    }
    auto it = res.to_current.find(in[i]);
    if (it == res.to_current.end()) {
      return Status::DataLoss("v3: array references symbol absent from "
                              "the symbol table");
    }
    (*out)[i] = it->second;
  }
  return Status::OK();
}

Status TranslateOne(SymbolId in, const SymbolResolution& res, SymbolId* out) {
  if (in == kNoSymbol) {
    *out = kNoSymbol;
    return Status::OK();
  }
  auto it = res.to_current.find(in);
  if (it == res.to_current.end()) {
    return Status::DataLoss("v3: symbol absent from the symbol table");
  }
  *out = it->second;
  return Status::OK();
}

Result<OpenedCollectionV3> OpenImpl(std::shared_ptr<PageFile> file,
                                    bool force_translate = false) {
  OpenedCollectionV3 out;
  out.file = file;

  Result<std::span<const uint8_t>> cmeta_sec =
      file->Section(kCollectionMetaSection);
  GQL_RETURN_IF_ERROR(cmeta_sec.status());
  Cursor cmeta(cmeta_sec.value());
  uint32_t fmt = 0, graph_count = 0;
  GQL_RETURN_IF_ERROR(cmeta.ReadU32(&fmt));
  if (fmt != kFormatVersion) {
    return Status::DataLoss("v3: unsupported format version " +
                            std::to_string(fmt));
  }
  GQL_RETURN_IF_ERROR(cmeta.ReadU32(&graph_count));
  GQL_RETURN_IF_ERROR(cmeta.ReadU64(&out.store_version));
  GQL_RETURN_IF_ERROR(cmeta.ReadString(&out.name));
  GQL_RETURN_IF_ERROR(cmeta.CheckCount(graph_count, 8, "graph directory"));
  std::vector<std::pair<uint32_t, uint32_t>> graph_secs(graph_count);
  for (auto& [meta_id, blob_id] : graph_secs) {
    GQL_RETURN_IF_ERROR(cmeta.ReadU32(&meta_id));
    GQL_RETURN_IF_ERROR(cmeta.ReadU32(&blob_id));
  }

  Result<std::span<const uint8_t>> symtab_sec =
      file->Section(kSymbolTableSection);
  GQL_RETURN_IF_ERROR(symtab_sec.status());
  SymbolResolution res;
  GQL_RETURN_IF_ERROR(DecodeSymbolTable(symtab_sec.value(), &res));
  if (force_translate) res.identical = false;
  out.symbols_identical = res.identical;

  for (const auto& [meta_id, blob_id] : graph_secs) {
    Result<std::span<const uint8_t>> meta_sec = file->Section(meta_id);
    GQL_RETURN_IF_ERROR(meta_sec.status());
    if (!file->HasSection(blob_id)) {
      return Status::DataLoss("v3: missing builder blob section");
    }
    Cursor meta(meta_sec.value());

    uint8_t directed = 0;
    uint64_t num_nodes = 0, num_edges = 0;
    GraphSnapshot::MappedParts parts;
    GQL_RETURN_IF_ERROR(meta.ReadU8(&directed));
    GQL_RETURN_IF_ERROR(meta.ReadU64(&num_nodes));
    GQL_RETURN_IF_ERROR(meta.ReadU64(&num_edges));
    GQL_RETURN_IF_ERROR(meta.ReadU64(&parts.source_version));
    if (directed > 1 || num_nodes >= kMaxIds || num_edges >= kMaxIds) {
      return Status::DataLoss("v3: graph meta out of range");
    }
    parts.directed = directed == 1;
    parts.num_nodes = static_cast<size_t>(num_nodes);
    GQL_RETURN_IF_ERROR(meta.ReadI32(&parts.graph_name_sym));
    GQL_RETURN_IF_ERROR(meta.ReadI32(&parts.graph_tag_sym));
    uint32_t label_count = 0;
    GQL_RETURN_IF_ERROR(meta.ReadU32(&label_count));
    GQL_RETURN_IF_ERROR(meta.CheckCount(label_count, 4, "labels"));
    parts.labels_in_order.resize(label_count);
    for (uint32_t i = 0; i < label_count; ++i) {
      GQL_RETURN_IF_ERROR(meta.ReadI32(&parts.labels_in_order[i]));
    }
    uint32_t array_ids[kNumArraySections];
    for (uint32_t& id : array_ids) {
      GQL_RETURN_IF_ERROR(meta.ReadU32(&id));
    }

    auto backing = std::make_shared<SnapshotBacking>();
    backing->file = file;
    size_t mapped_bytes = 0;
    auto count_mapped = [&mapped_bytes](auto span) {
      mapped_bytes += span.size_bytes();
      return span;
    };

    // Symbol arrays: viewed in place when identity held, otherwise
    // translated into owned copies held by the backing.
    auto sym_array = [&](uint32_t id, uint64_t count, const char* what)
        -> Result<std::span<const SymbolId>> {
      Result<std::span<const SymbolId>> raw =
          TypedSection<SymbolId>(*file, id, count, what);
      GQL_RETURN_IF_ERROR(raw.status());
      if (res.identical) return count_mapped(raw.value());
      std::vector<SymbolId> translated;
      GQL_RETURN_IF_ERROR(TranslateSyms(raw.value(), res, &translated));
      backing->sym_arrays.push_back(std::move(translated));
      return std::span<const SymbolId>(backing->sym_arrays.back());
    };
    auto adj_array = [&](uint32_t id, uint64_t count, const char* what)
        -> Result<std::span<const GraphSnapshot::AdjEntry>> {
      Result<std::span<const GraphSnapshot::AdjEntry>> raw =
          TypedSection<GraphSnapshot::AdjEntry>(*file, id, count, what);
      GQL_RETURN_IF_ERROR(raw.status());
      if (res.identical) return count_mapped(raw.value());
      std::vector<GraphSnapshot::AdjEntry> translated(raw.value().begin(),
                                                      raw.value().end());
      for (GraphSnapshot::AdjEntry& a : translated) {
        GQL_RETURN_IF_ERROR(TranslateOne(a.tag_sym, res, &a.tag_sym));
      }
      backing->adj_arrays.push_back(std::move(translated));
      return std::span<const GraphSnapshot::AdjEntry>(
          backing->adj_arrays.back());
    };

    if (!res.identical) {
      GQL_RETURN_IF_ERROR(
          TranslateOne(parts.graph_name_sym, res, &parts.graph_name_sym));
      GQL_RETURN_IF_ERROR(
          TranslateOne(parts.graph_tag_sym, res, &parts.graph_tag_sym));
      for (SymbolId& s : parts.labels_in_order) {
        GQL_RETURN_IF_ERROR(TranslateOne(s, res, &s));
      }
    }

    {
      Result<std::span<const SymbolId>> r =
          sym_array(array_ids[0], num_nodes, "node_name_sym");
      GQL_RETURN_IF_ERROR(r.status());
      parts.node_name_sym = r.value();
    }
    {
      Result<std::span<const SymbolId>> r =
          sym_array(array_ids[1], num_nodes, "node_tag_sym");
      GQL_RETURN_IF_ERROR(r.status());
      parts.node_tag_sym = r.value();
    }
    {
      Result<std::span<const SymbolId>> r =
          sym_array(array_ids[2], num_nodes, "node_label_sym");
      GQL_RETURN_IF_ERROR(r.status());
      parts.node_label_sym = r.value();
    }
    {
      Result<std::span<const SymbolId>> r =
          sym_array(array_ids[3], num_edges, "edge_name_sym");
      GQL_RETURN_IF_ERROR(r.status());
      parts.edge_name_sym = r.value();
    }
    {
      Result<std::span<const SymbolId>> r =
          sym_array(array_ids[4], num_edges, "edge_tag_sym");
      GQL_RETURN_IF_ERROR(r.status());
      parts.edge_tag_sym = r.value();
    }
    {
      Result<std::span<const NodeId>> r =
          TypedSection<NodeId>(*file, array_ids[5], num_edges, "edge_src");
      GQL_RETURN_IF_ERROR(r.status());
      parts.edge_src = count_mapped(r.value());
    }
    {
      Result<std::span<const NodeId>> r =
          TypedSection<NodeId>(*file, array_ids[6], num_edges, "edge_dst");
      GQL_RETURN_IF_ERROR(r.status());
      parts.edge_dst = count_mapped(r.value());
    }
    for (size_t e = 0; e < parts.edge_src.size(); ++e) {
      if (parts.edge_src[e] < 0 ||
          static_cast<uint64_t>(parts.edge_src[e]) >= num_nodes ||
          parts.edge_dst[e] < 0 ||
          static_cast<uint64_t>(parts.edge_dst[e]) >= num_nodes) {
        return Status::DataLoss("v3: edge endpoint out of range");
      }
    }

    {
      Result<std::span<const uint32_t>> r = TypedSection<uint32_t>(
          *file, array_ids[7], num_nodes + 1, "out_offsets");
      GQL_RETURN_IF_ERROR(r.status());
      parts.out_offsets = count_mapped(r.value());
    }
    {
      Result<std::span<const uint8_t>> sec = file->Section(array_ids[8]);
      GQL_RETURN_IF_ERROR(sec.status());
      if (sec.value().size() % sizeof(GraphSnapshot::AdjEntry) != 0) {
        return Status::DataLoss("v3: out_entries has wrong length");
      }
      Result<std::span<const GraphSnapshot::AdjEntry>> r = adj_array(
          array_ids[8],
          sec.value().size() / sizeof(GraphSnapshot::AdjEntry),
          "out_entries");
      GQL_RETURN_IF_ERROR(r.status());
      parts.out_entries = r.value();
    }
    GQL_RETURN_IF_ERROR(ValidateAdjacency(parts.out_offsets,
                                          parts.out_entries, num_nodes,
                                          num_edges, "out"));
    const uint64_t in_nodes = parts.directed ? num_nodes + 1 : 0;
    {
      Result<std::span<const uint32_t>> r = TypedSection<uint32_t>(
          *file, array_ids[9], in_nodes, "in_offsets");
      GQL_RETURN_IF_ERROR(r.status());
      parts.in_offsets = count_mapped(r.value());
    }
    {
      Result<std::span<const uint8_t>> sec = file->Section(array_ids[10]);
      GQL_RETURN_IF_ERROR(sec.status());
      if (sec.value().size() % sizeof(GraphSnapshot::AdjEntry) != 0 ||
          (!parts.directed && !sec.value().empty())) {
        return Status::DataLoss("v3: in_entries has wrong length");
      }
      Result<std::span<const GraphSnapshot::AdjEntry>> r = adj_array(
          array_ids[10],
          sec.value().size() / sizeof(GraphSnapshot::AdjEntry),
          "in_entries");
      GQL_RETURN_IF_ERROR(r.status());
      parts.in_entries = r.value();
    }
    if (parts.directed) {
      GQL_RETURN_IF_ERROR(ValidateAdjacency(parts.in_offsets,
                                            parts.in_entries, num_nodes,
                                            num_edges, "in"));
    }
    {
      Result<std::span<const uint32_t>> r = TypedSection<uint32_t>(
          *file, array_ids[11], num_nodes + 1, "uniq_offsets");
      GQL_RETURN_IF_ERROR(r.status());
      parts.uniq_offsets = count_mapped(r.value());
    }
    {
      Result<std::span<const uint8_t>> sec = file->Section(array_ids[12]);
      GQL_RETURN_IF_ERROR(sec.status());
      if (sec.value().size() % sizeof(NodeId) != 0) {
        return Status::DataLoss("v3: uniq_nbrs has wrong length");
      }
      Result<std::span<const NodeId>> r = TypedSection<NodeId>(
          *file, array_ids[12], sec.value().size() / sizeof(NodeId),
          "uniq_nbrs");
      GQL_RETURN_IF_ERROR(r.status());
      parts.uniq_nbrs = count_mapped(r.value());
    }
    GQL_RETURN_IF_ERROR(ValidateOffsets(parts.uniq_offsets,
                                        parts.uniq_nbrs.size(),
                                        "unique-neighbor"));
    for (size_t v = 0; v + 1 < parts.uniq_offsets.size(); ++v) {
      NodeId prev = -1;
      for (uint32_t i = parts.uniq_offsets[v]; i < parts.uniq_offsets[v + 1];
           ++i) {
        NodeId nb = parts.uniq_nbrs[i];
        if (nb < 0 || static_cast<uint64_t>(nb) >= num_nodes || nb <= prev) {
          return Status::DataLoss("v3: unique-neighbor run invalid");
        }
        prev = nb;
      }
    }

    // Columns.
    auto read_columns = [&](uint64_t id_limit, const char* what)
        -> Result<std::vector<GraphSnapshot::Column>> {
      uint32_t col_count = 0;
      GQL_RETURN_IF_ERROR(meta.ReadU32(&col_count));
      GQL_RETURN_IF_ERROR(meta.CheckCount(col_count, 24, what));
      std::vector<GraphSnapshot::Column> cols(col_count);
      for (GraphSnapshot::Column& col : cols) {
        uint64_t entry_count = 0;
        uint32_t ids_id = 0, syms_id = 0, values_id = 0;
        GQL_RETURN_IF_ERROR(meta.ReadI32(&col.attr_sym));
        GQL_RETURN_IF_ERROR(meta.ReadU64(&entry_count));
        GQL_RETURN_IF_ERROR(meta.ReadU32(&ids_id));
        GQL_RETURN_IF_ERROR(meta.ReadU32(&syms_id));
        GQL_RETURN_IF_ERROR(meta.ReadU32(&values_id));
        if (!res.identical) {
          GQL_RETURN_IF_ERROR(TranslateOne(col.attr_sym, res, &col.attr_sym));
        }
        {
          Result<std::span<const int32_t>> r = TypedSection<int32_t>(
              *file, ids_id, entry_count, "column ids");
          GQL_RETURN_IF_ERROR(r.status());
          col.ids = count_mapped(r.value());
        }
        int32_t prev = -1;
        for (int32_t id : col.ids) {
          // Strictly ascending in-range ids: Find's binary search and its
          // dense-column lookup (id == position) both rely on this.
          if (id <= prev || static_cast<uint64_t>(id) >= id_limit) {
            return Status::DataLoss("v3: column ids invalid");
          }
          prev = id;
        }
        {
          Result<std::span<const SymbolId>> r =
              sym_array(syms_id, entry_count, "column val_syms");
          GQL_RETURN_IF_ERROR(r.status());
          col.val_syms = r.value();
        }
        Result<std::span<const uint8_t>> values_sec = file->Section(values_id);
        GQL_RETURN_IF_ERROR(values_sec.status());
        Cursor values(values_sec.value());
        uint32_t value_count = 0;
        GQL_RETURN_IF_ERROR(values.ReadU32(&value_count));
        if (value_count != entry_count) {
          return Status::DataLoss("v3: column value count mismatch");
        }
        GQL_RETURN_IF_ERROR(values.CheckCount(value_count, 1, "values"));
        col.values.resize(value_count);
        for (Value& v : col.values) {
          GQL_RETURN_IF_ERROR(values.ReadValue(&v));
        }
      }
      return cols;
    };
    {
      Result<std::vector<GraphSnapshot::Column>> r =
          read_columns(num_nodes, "node columns");
      GQL_RETURN_IF_ERROR(r.status());
      parts.node_columns = std::move(r).value();
    }
    {
      Result<std::vector<GraphSnapshot::Column>> r =
          read_columns(num_edges, "edge columns");
      GQL_RETURN_IF_ERROR(r.status());
      parts.edge_columns = std::move(r).value();
    }

    parts.mapped_bytes = mapped_bytes;
    parts.backing = std::shared_ptr<const void>(
        backing, static_cast<const void*>(backing.get()));
    out.snapshots.push_back(
        std::make_shared<const GraphSnapshot>(std::move(parts)));
    out.blob_sections.push_back(blob_id);
  }
  return out;
}

}  // namespace

Result<OpenedCollectionV3> OpenCollectionV3(const std::string& path) {
  Result<std::shared_ptr<PageFile>> file = PageFile::Open(path);
  GQL_RETURN_IF_ERROR(file.status());
  return OpenImpl(std::move(file).value());
}

Result<OpenedCollectionV3> OpenCollectionV3FromBuffer(
    std::vector<uint8_t> bytes) {
  Result<std::shared_ptr<PageFile>> file =
      PageFile::FromBuffer(std::move(bytes));
  GQL_RETURN_IF_ERROR(file.status());
  return OpenImpl(std::move(file).value());
}

namespace internal {
Result<OpenedCollectionV3> OpenFromBufferForTesting(
    std::vector<uint8_t> bytes, bool force_translate) {
  Result<std::shared_ptr<PageFile>> file =
      PageFile::FromBuffer(std::move(bytes));
  GQL_RETURN_IF_ERROR(file.status());
  return OpenImpl(std::move(file).value(), force_translate);
}
}  // namespace internal

Result<GraphCollection> MaterializeGraphs(const OpenedCollectionV3& opened) {
  GraphCollection out(opened.name);
  for (size_t i = 0; i < opened.blob_sections.size(); ++i) {
    Result<std::span<const uint8_t>> blob =
        opened.file->Section(opened.blob_sections[i]);
    GQL_RETURN_IF_ERROR(blob.status());
    std::istringstream in(
        std::string(blob.value().begin(), blob.value().end()));
    Result<Graph> g = ReadGraphBinary(&in);
    GQL_RETURN_IF_ERROR(g.status());
    out.Add(std::move(g).value());
  }
  // Adopt the mapped snapshots only once every graph sits at its final
  // address: Graph's move operations deliberately drop the snapshot cache,
  // so adopting before the vector stops reallocating would lose them.
  for (size_t i = 0; i < out.size(); ++i) {
    out[i].AdoptSnapshot(opened.snapshots[i]);
  }
  return out;
}

Result<GraphCollection> LoadCollectionV3(const std::string& path) {
  Result<OpenedCollectionV3> opened = OpenCollectionV3(path);
  GQL_RETURN_IF_ERROR(opened.status());
  return MaterializeGraphs(opened.value());
}

}  // namespace graphql::io
