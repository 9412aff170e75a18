#ifndef GRAPHQL_OBS_METRICS_H_
#define GRAPHQL_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/thread_annotations.h"

namespace graphql::obs {

/// Monotonic counter with thread-safe, wait-free increments. Obtained from
/// (and owned by) a MetricsRegistry; pointers stay valid for the
/// registry's lifetime, so hot paths may cache them.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Log2-bucketed latency/size histogram: bucket 0 holds the value 0 and
/// bucket i (1..63) holds values in [2^(i-1), 2^i). Recording is a couple
/// of relaxed atomic adds, safe from any thread.
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  void Record(uint64_t value);
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Smallest / largest value recorded so far; 0 when empty.
  uint64_t Min() const;
  uint64_t Max() const { return max_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void Reset();

  /// Index of the bucket a value falls into.
  static int BucketOf(uint64_t value);
  /// Inclusive upper bound of a bucket's value range.
  static uint64_t BucketUpperBound(int i);
  /// Smallest value a bucket can hold (2^(i-1) for i >= 1, else 0).
  static uint64_t BucketLowerBound(int i);

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  /// Exact extrema of the recorded values (min_ is UINT64_MAX while
  /// empty); they bound the interpolated percentile estimates below.
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
};

/// Point-in-time copy of one histogram.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  /// Exact extrema of the recorded values (both 0 when empty).
  uint64_t min = 0;
  uint64_t max = 0;
  std::array<uint64_t, Histogram::kNumBuckets> buckets{};

  double Mean() const;
  /// Approximate percentile (p in [0,100]): linear interpolation within
  /// the log2 bucket holding the requested rank, clamped to the exact
  /// [min, max] recorded. (The former upper-bound-only estimate overstated
  /// p50/p99 by up to 2x.) 0 when empty.
  uint64_t Percentile(double p) const;
  uint64_t P50() const { return Percentile(50); }
  uint64_t P95() const { return Percentile(95); }
  uint64_t P99() const { return Percentile(99); }
};

/// Point-in-time copy of a whole registry; also the unit of export.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Per-metric difference against an earlier snapshot of the same
  /// registry (counters and buckets subtract; metrics absent from `base`
  /// pass through). Used for per-query PROFILE deltas.
  MetricsSnapshot DeltaSince(const MetricsSnapshot& base) const;

  /// {"counters": {...}, "histograms": {name: {count, sum, buckets}}}.
  std::string ToJson() const;
  /// Human-readable table: one line per counter, one per histogram with
  /// count/mean/p50/p90/p99.
  std::string ToText() const;
};

/// Named metric registry. Lookup takes a mutex; increments on the returned
/// objects are lock-free. Metric names are dot-separated hierarchies,
/// lowest level last, e.g. "match.search.steps" (see DESIGN.md,
/// Observability).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the named metric. A name must stay one kind.
  Counter* GetCounter(std::string_view name) GQL_EXCLUDES(mu_);
  Histogram* GetHistogram(std::string_view name) GQL_EXCLUDES(mu_);

  MetricsSnapshot Snapshot() const GQL_EXCLUDES(mu_);
  /// Zeroes every registered metric (names stay registered, and cached
  /// pointers stay valid).
  void Reset();

  std::string ToJson() const { return Snapshot().ToJson(); }
  std::string ToText() const { return Snapshot().ToText(); }

  /// Process-wide default registry; PipelineOptions points here unless
  /// redirected (the Evaluator uses its own instance per session).
  static MetricsRegistry& Global();

 private:
  /// Transparent, so a lookup by string_view builds no key; a miss stores
  /// one.
  struct NameHash : std::hash<std::string_view> {
    using is_transparent = void;
  };
  template <typename Metric>
  using NameMap = std::unordered_map<std::string, std::unique_ptr<Metric>,
                                     NameHash, std::equal_to<>>;
  mutable Mutex mu_;
  NameMap<Counter> counters_ GQL_GUARDED_BY(mu_);
  NameMap<Histogram> histograms_ GQL_GUARDED_BY(mu_);
};

}  // namespace graphql::obs

#endif  // GRAPHQL_OBS_METRICS_H_
