#ifndef GRAPHQL_COMMON_PACKED_BITS_H_
#define GRAPHQL_COMMON_PACKED_BITS_H_

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace graphql {

/// Packed k x n bit matrix: the snapshot refinement's candidate membership
/// and dirty marks, one bit each instead of a byte bitmap plus a hashed
/// pair set. The footprint is known up front (bytes()), so callers reserve
/// it once against the governor.
///
/// A single bitmap is a PackedBits with rows == 1.
class PackedBits {
 public:
  PackedBits() = default;
  PackedBits(size_t rows, size_t cols)
      : rows_(rows),
        cols_(cols),
        row_words_((cols + 63) / 64),
        words_(rows * row_words_, 0) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t bytes() const { return words_.size() * sizeof(uint64_t); }

  bool Test(size_t r, size_t c) const {
    return (words_[r * row_words_ + (c >> 6)] >> (c & 63)) & 1;
  }
  void Set(size_t r, size_t c) {
    words_[r * row_words_ + (c >> 6)] |= uint64_t{1} << (c & 63);
  }
  void Clear(size_t r, size_t c) {
    words_[r * row_words_ + (c >> 6)] &= ~(uint64_t{1} << (c & 63));
  }

  /// Copies another matrix's bits into this one. The shapes must match:
  /// the old refine-internal version silently adopted the source's word
  /// vector, so a size mismatch corrupted every later row computation.
  void CopyFrom(const PackedBits& other) {
    assert(rows_ == other.rows_ && cols_ == other.cols_ &&
           "PackedBits::CopyFrom requires identical shapes");
    words_ = other.words_;
  }

  /// Set bits of row `r` in ascending column order — row by row, the
  /// ascending (u, v) order refinement drains its dirty pairs in.
  /// `fn` returning false stops the scan (and returns false here).
  template <typename Fn>
  bool ForEachInRow(size_t r, Fn&& fn) const {
    const uint64_t* row = words_.data() + r * row_words_;
    for (size_t w = 0; w < row_words_; ++w) {
      uint64_t bits = row[w];
      while (bits != 0) {
        size_t c = (w << 6) + static_cast<size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        if (!fn(c)) return false;
      }
    }
    return true;
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t row_words_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace graphql

#endif  // GRAPHQL_COMMON_PACKED_BITS_H_
