#include "match/profile.h"

#include <algorithm>

namespace graphql::match {

void AppendProfile(const GraphSnapshot& snap, std::span<const NodeId> members,
                   std::vector<SymbolId>* out) {
  const size_t begin = out->size();
  for (NodeId x : members) {
    if (SymbolId s = snap.node_label_sym(x); s != kNoSymbol) out->push_back(s);
  }
  std::sort(out->begin() + static_cast<std::ptrdiff_t>(begin), out->end());
}

Profile BuildProfile(NeighborhoodWalker* walker, NodeId v, int radius) {
  Profile profile;
  AppendProfile(walker->snapshot(), walker->Walk(v, radius), &profile);
  return profile;
}

bool ProfileContains(const Profile& haystack, const Profile& needle) {
  return ProfileSpanContains(haystack, needle);
}

uint64_t ProfileSignature(std::span<const SymbolId> profile) {
  uint64_t sig = 0;
  for (SymbolId s : profile) {
    sig |= uint64_t{1} << (static_cast<uint32_t>(s) & 63);
  }
  return sig;
}

bool ProfileSpanContains(std::span<const SymbolId> haystack,
                         std::span<const SymbolId> needle) {
  size_t i = 0;
  for (SymbolId want : needle) {
    if (want == kNoSymbol) return false;
    while (i < haystack.size() && haystack[i] < want) ++i;
    if (i == haystack.size() || haystack[i] != want) return false;
    ++i;
  }
  return true;
}

}  // namespace graphql::match
