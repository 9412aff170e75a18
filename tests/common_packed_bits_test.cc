#include "common/packed_bits.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace graphql {
namespace {

/// The set bits of row `r`, tail bits past cols() included: the check
/// that no operation touched a bit it was not asked to.
std::vector<size_t> SetBits(const PackedBits& b, size_t r) {
  std::vector<size_t> out;
  b.ForEachInRow(r, [&](size_t c) {
    out.push_back(c);
    return true;
  });
  return out;
}

TEST(PackedBitsTest, StartsAllZero) {
  PackedBits b(3, 130);
  EXPECT_EQ(b.rows(), 3u);
  EXPECT_EQ(b.cols(), 130u);
  EXPECT_EQ(b.bytes(), 3 * 3 * sizeof(uint64_t));  // ceil(130 / 64) a row.
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 130; ++c) EXPECT_FALSE(b.Test(r, c));
    EXPECT_TRUE(SetBits(b, r).empty()) << r;
  }
}

TEST(PackedBitsTest, SetTestClearAcrossWordBoundaries) {
  PackedBits b(2, 130);
  const std::vector<size_t> probes = {0, 1, 63, 64, 65, 127, 128, 129};
  // Every bit of both rows: row 1 holds exactly `want`, row 0 nothing.
  auto expect_row1 = [&](const std::vector<size_t>& want) {
    for (size_t c = 0; c < 130; ++c) {
      EXPECT_EQ(b.Test(1, c),
                std::find(want.begin(), want.end(), c) != want.end())
          << c;
      EXPECT_FALSE(b.Test(0, c)) << c;  // Row isolation.
    }
    EXPECT_EQ(SetBits(b, 1), want);
    EXPECT_TRUE(SetBits(b, 0).empty());
  };
  for (size_t c : probes) b.Set(1, c);
  expect_row1(probes);
  b.Clear(1, 64);
  std::vector<size_t> cleared = probes;
  cleared.erase(std::find(cleared.begin(), cleared.end(), 64));
  expect_row1(cleared);
}

TEST(PackedBitsTest, BytesMatchesWordFootprint) {
  PackedBits b(4, 100);  // 2 words per row.
  EXPECT_EQ(b.bytes(), 4 * 2 * sizeof(uint64_t));
}

TEST(PackedBitsTest, CopyFromSameShape) {
  PackedBits a(2, 70);
  a.Set(0, 5);
  a.Set(1, 69);
  PackedBits b(2, 70);
  b.Set(0, 1);  // Overwritten by the copy.
  b.CopyFrom(a);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 70; ++c) {
      EXPECT_EQ(b.Test(r, c), (r == 0 && c == 5) || (r == 1 && c == 69))
          << r << "," << c;
    }
  }
  EXPECT_EQ(SetBits(b, 0), std::vector<size_t>{5});
  EXPECT_EQ(SetBits(b, 1), std::vector<size_t>{69});
}

#ifndef NDEBUG
TEST(PackedBitsDeathTest, CopyFromRejectsShapeMismatch) {
  // The pre-hoist private class silently adopted the source's word vector
  // on mismatch, corrupting row indexing; now it asserts.
  PackedBits a(2, 70);
  PackedBits b(3, 70);
  EXPECT_DEATH(b.CopyFrom(a), "identical shapes");
  PackedBits c(2, 128);
  EXPECT_DEATH(c.CopyFrom(a), "identical shapes");
}
#endif

TEST(PackedBitsTest, ForEachInRowAscendingAndEarlyStop) {
  PackedBits b(1, 200);
  const std::vector<size_t> want = {0, 7, 63, 64, 128, 199};
  for (size_t c : want) b.Set(0, c);

  std::vector<size_t> got;
  EXPECT_TRUE(b.ForEachInRow(0, [&](size_t c) {
    got.push_back(c);
    return true;
  }));
  EXPECT_EQ(got, want);

  got.clear();
  EXPECT_FALSE(b.ForEachInRow(0, [&](size_t c) {
    got.push_back(c);
    return got.size() < 3;  // Stop after three.
  }));
  EXPECT_EQ(got.size(), 3u);
  EXPECT_EQ(got[2], 63u);
}

}  // namespace
}  // namespace graphql
