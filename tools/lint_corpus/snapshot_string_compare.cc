// Seeded violation corpus: selection hot-path helpers that compare raw
// strings instead of interned symbol ids. Never compiled; drives the
// snapshot-string-compare rule test. The rule is scoped by file, so both
// functions fire whatever their names say.
#include <string>

namespace graphql {

struct FakeSnap {
  std::string label;
};

bool LabelMatchesSnap(const FakeSnap& snap) {
  std::string wanted = "person";
  return snap.label == "person" || snap.label.compare(wanted) == 0;
}

int CheckEdgeTag(const FakeSnap& snap) {
  // A search-loop helper without "Snap" in its name is in scope too.
  return snap.label == "ok" ? 1 : 0;
}

}  // namespace graphql
