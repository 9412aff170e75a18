#ifndef GRAPHQL_IO_SERIALIZE_H_
#define GRAPHQL_IO_SERIALIZE_H_

#include <iosfwd>
#include <string>
#include <string_view>

#include "common/result.h"
#include "graph/collection.h"
#include "graph/graph.h"

namespace graphql::io {

/// Graph persistence in two formats:
///
///  - *Text*: GraphQL surface syntax (`graph G { node v <...>; ... };`),
///    produced so that it re-parses through the language front end —
///    the query language doubles as the interchange format. Anonymous
///    nodes/edges receive generated names (`_n3`); existing names are
///    preserved. Collections serialize as a program of declarations.
///
///  - *Binary*: a compact length-prefixed format (magic "GQLB", version,
///    interned string table, node/edge records) for large graphs where
///    parsing would dominate.
///
/// Both round-trip exactly (structure, names, attributes, directedness);
/// verified by property tests.

/// Renders one graph as a parseable GraphQL declaration (no trailing ';').
std::string WriteGraphText(const Graph& g);

/// Renders a collection as a program of `graph ...;` declarations.
std::string WriteCollectionText(const GraphCollection& c);

/// Parses a single graph serialized by WriteGraphText.
Result<Graph> ReadGraphText(std::string_view text);

/// Parses a collection serialized by WriteCollectionText.
Result<GraphCollection> ReadCollectionText(std::string_view text);

/// Binary encoding into/out of iostreams, format version 2: a per-graph
/// interned string table (names, tags, attribute keys, string values
/// stored once, referenced by u32 index) followed by columnar node/edge
/// records. Any other version, the retired inline-string version 1
/// included, is a kParseError.
Status WriteGraphBinary(const Graph& g, std::ostream* out);
Result<Graph> ReadGraphBinary(std::istream* in);

Status WriteCollectionBinary(const GraphCollection& c, std::ostream* out);
Result<GraphCollection> ReadCollectionBinary(std::istream* in);

/// File convenience wrappers (format chosen by extension: ".gqlb" binary,
/// anything else text).
Status SaveCollection(const GraphCollection& c, const std::string& path);
Result<GraphCollection> LoadCollection(const std::string& path);

}  // namespace graphql::io

#endif  // GRAPHQL_IO_SERIALIZE_H_
