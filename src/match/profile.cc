#include "match/profile.h"

#include <algorithm>

namespace graphql::match {

Profile BuildProfile(const Graph& g, NodeId v, int radius,
                     std::vector<int>* scratch_dist) {
  SymbolTable& syms = SymbolTable::Global();
  Profile profile;
  std::vector<int>& dist = *scratch_dist;
  std::vector<NodeId> frontier = {v};
  std::vector<NodeId> touched = {v};
  dist[v] = 0;
  std::string_view center = g.Label(v);
  if (!center.empty()) profile.push_back(syms.Intern(center));
  for (int d = 1; d <= radius && !frontier.empty(); ++d) {
    std::vector<NodeId> next;
    for (NodeId x : frontier) {
      for (const Graph::Adj& a : g.neighbors(x)) {
        if (dist[a.node] >= 0) continue;
        dist[a.node] = d;
        touched.push_back(a.node);
        next.push_back(a.node);
        std::string_view label = g.Label(a.node);
        if (!label.empty()) profile.push_back(syms.Intern(label));
      }
      if (g.directed()) {
        for (const Graph::Adj& a : g.in_neighbors(x)) {
          if (dist[a.node] >= 0) continue;
          dist[a.node] = d;
          touched.push_back(a.node);
          next.push_back(a.node);
          std::string_view label = g.Label(a.node);
          if (!label.empty()) profile.push_back(syms.Intern(label));
        }
      }
    }
    frontier = std::move(next);
  }
  for (NodeId x : touched) dist[x] = -1;
  std::sort(profile.begin(), profile.end());
  return profile;
}

Profile BuildProfile(const Graph& g, NodeId v, int radius) {
  std::vector<int> dist(g.NumNodes(), -1);
  return BuildProfile(g, v, radius, &dist);
}

Profile BuildProfile(const GraphSnapshot& snap, NodeId v, int radius,
                     std::vector<int>* scratch_dist) {
  Profile profile;
  std::vector<int>& dist = *scratch_dist;
  std::vector<NodeId> frontier = {v};
  std::vector<NodeId> touched = {v};
  dist[v] = 0;
  if (SymbolId s = snap.node_label_sym(v); s != kNoSymbol) {
    profile.push_back(s);
  }
  for (int d = 1; d <= radius && !frontier.empty(); ++d) {
    std::vector<NodeId> next;
    for (NodeId x : frontier) {
      auto visit = [&](NodeId nbr) {
        if (dist[nbr] >= 0) return;
        dist[nbr] = d;
        touched.push_back(nbr);
        next.push_back(nbr);
        if (SymbolId s = snap.node_label_sym(nbr); s != kNoSymbol) {
          profile.push_back(s);
        }
      };
      for (const GraphSnapshot::AdjEntry& a : snap.out(x)) visit(a.node);
      if (snap.directed()) {
        for (const GraphSnapshot::AdjEntry& a : snap.in(x)) visit(a.node);
      }
    }
    frontier = std::move(next);
  }
  for (NodeId x : touched) dist[x] = -1;
  std::sort(profile.begin(), profile.end());
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
