// The B(u, v) test refinement runs (SemiPerfectMatcher) against two
// references: Hopcroft–Karp in match_oracle.h and an exhaustive matcher.
// Refinement's own tests almost never need an augmenting path, so the
// fixed instances here are the ones where greedy's first pick blocks a
// later row.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "match/refine.h"
#include "match_oracle.h"

namespace graphql::match {
namespace {

using Adjacency = std::vector<std::vector<int>>;

/// The kernel's verdict on an adjacency-list instance.
bool KernelMatches(SemiPerfectMatcher* matcher, int n_left, int n_right,
                   const Adjacency& adj) {
  return matcher->Test(n_left, n_right, [&](size_t r, size_t c) {
    const std::vector<int>& row = adj[r];
    return std::find(row.begin(), row.end(), static_cast<int>(c)) !=
           row.end();
  });
}

bool KernelMatches(int n_left, int n_right, const Adjacency& adj) {
  SemiPerfectMatcher matcher;
  return KernelMatches(&matcher, n_left, n_right, adj);
}

TEST(BipartiteTest, EmptyLeftIsTrivialMatch) {
  EXPECT_EQ(oracle::MaxBipartiteMatching(0, 3, {}), 0);
  EXPECT_TRUE(oracle::HasSemiPerfectMatching(0, 3, {}));
  EXPECT_TRUE(KernelMatches(0, 3, {}));
}

TEST(BipartiteTest, PerfectMatchingOnIdentity) {
  Adjacency adj = {{0}, {1}, {2}};
  EXPECT_EQ(oracle::MaxBipartiteMatching(3, 3, adj), 3);
  EXPECT_TRUE(oracle::HasSemiPerfectMatching(3, 3, adj));
  EXPECT_TRUE(KernelMatches(3, 3, adj));
}

TEST(BipartiteTest, AugmentingPathNeeded) {
  // l0-{r0,r1}, l1-{r0}: greedy gives l0 r0, which blocks l1 until the
  // path l1-r0-l0-r1 moves l0 to r1.
  Adjacency adj = {{0, 1}, {0}};
  EXPECT_EQ(oracle::MaxBipartiteMatching(2, 2, adj), 2);
  EXPECT_TRUE(oracle::HasSemiPerfectMatching(2, 2, adj));
  EXPECT_TRUE(KernelMatches(2, 2, adj));
}

TEST(BipartiteTest, ChainAugmentation) {
  // l0-{r0,r1}, l1-{r1,r2}, l2-{r0}: greedy gives l0 r0 and l1 r1 and
  // leaves l2 unmatched; the only augmenting path has 5 edges,
  // l2-r0-l0-r1-l1-r2.
  Adjacency adj = {{0, 1}, {1, 2}, {0}};
  EXPECT_EQ(oracle::MaxBipartiteMatching(3, 3, adj), 3);
  EXPECT_TRUE(KernelMatches(3, 3, adj));
  // Without r2 the same chain dead-ends: no semi-perfect matching.
  Adjacency blocked = {{0, 1}, {1}, {0}};
  EXPECT_EQ(oracle::MaxBipartiteMatching(3, 3, blocked), 2);
  EXPECT_FALSE(KernelMatches(3, 3, blocked));
}

TEST(BipartiteTest, BottleneckBlocksSemiPerfect) {
  // Two left vertices share one right vertex.
  Adjacency adj = {{0}, {0}};
  EXPECT_EQ(oracle::MaxBipartiteMatching(2, 1, adj), 1);
  EXPECT_FALSE(oracle::HasSemiPerfectMatching(2, 1, adj));
  EXPECT_FALSE(KernelMatches(2, 1, adj));
}

TEST(BipartiteTest, HallViolationDetected) {
  // {l0,l1,l2} all confined to {r0,r1}.
  Adjacency adj = {{0, 1}, {0, 1}, {0, 1}};
  EXPECT_EQ(oracle::MaxBipartiteMatching(3, 3, adj), 2);
  EXPECT_FALSE(oracle::HasSemiPerfectMatching(3, 3, adj));
  EXPECT_FALSE(KernelMatches(3, 3, adj));
}

TEST(BipartiteTest, IsolatedLeftVertexFailsFast) {
  Adjacency adj = {{0}, {}};
  EXPECT_FALSE(oracle::HasSemiPerfectMatching(2, 2, adj));
  EXPECT_FALSE(KernelMatches(2, 2, adj));
}

TEST(BipartiteTest, MoreLeftThanRightFailsFast) {
  Adjacency adj = {{0}, {0}, {0}};
  EXPECT_FALSE(oracle::HasSemiPerfectMatching(3, 1, adj));
  EXPECT_FALSE(KernelMatches(3, 1, adj));
}

/// Brute-force maximum matching for cross-checking (exponential, tiny n).
int BruteForceMatching(int n_left, int n_right, const Adjacency& adj) {
  int best = 0;
  std::vector<int> used(n_right, 0);
  std::function<void(int, int)> go = [&](int l, int matched) {
    best = std::max(best, matched);
    if (l == n_left) return;
    go(l + 1, matched);  // Leave l unmatched.
    for (int r : adj[l]) {
      if (!used[r]) {
        used[r] = 1;
        go(l + 1, matched + 1);
        used[r] = 0;
      }
    }
  };
  go(0, 0);
  return best;
}

/// True when first-free-column greedy in row order matches every row, so
/// the kernel needs no augmenting path.
bool GreedyCoversEveryRow(int n_right, const Adjacency& adj) {
  std::vector<char> taken(n_right, 0);
  for (const std::vector<int>& row : adj) {
    auto free = std::find_if(row.begin(), row.end(),
                             [&](int r) { return !taken[r]; });
    if (free == row.end()) return false;
    taken[*free] = 1;
  }
  return true;
}

// One matcher serves every trial, as one serves a whole refinement, so
// the trials also check that a test sees nothing of the tests before it.
TEST(BipartiteTest, RandomizedAgainstBruteForce) {
  Rng rng(12345);
  SemiPerfectMatcher matcher;
  int semi_perfect = 0;
  int augmented = 0;  // Semi-perfect, but only after augmenting paths.
  for (int trial = 0; trial < 2000; ++trial) {
    int nl = static_cast<int>(rng.NextBounded(7)) + 1;
    int nr = static_cast<int>(rng.NextBounded(9)) + 1;
    double density = 0.2 + 0.1 * static_cast<double>(trial % 6);
    Adjacency adj(nl);
    for (int l = 0; l < nl; ++l) {
      for (int r = 0; r < nr; ++r) {
        if (rng.NextBool(density)) adj[l].push_back(r);
      }
    }
    const int brute = BruteForceMatching(nl, nr, adj);
    EXPECT_EQ(oracle::MaxBipartiteMatching(nl, nr, adj), brute)
        << "trial " << trial;
    const bool want = brute == nl;
    EXPECT_EQ(oracle::HasSemiPerfectMatching(nl, nr, adj), want)
        << "trial " << trial;
    EXPECT_EQ(KernelMatches(&matcher, nl, nr, adj), want) << "trial " << trial;
    semi_perfect += want ? 1 : 0;
    augmented += want && !GreedyCoversEveryRow(nr, adj) ? 1 : 0;
  }
  // Both verdicts, and the augmenting-path branch, occur often enough for
  // the sweep to mean something.
  EXPECT_GT(semi_perfect, 400);
  EXPECT_LT(semi_perfect, 1600);
  EXPECT_GT(augmented, 50);
}

}  // namespace
}  // namespace graphql::match
