#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/json.h"

namespace graphql::obs {

namespace {

std::string FormatU64(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

int Histogram::BucketOf(uint64_t value) {
  if (value == 0) return 0;
  // Bucket i (i >= 1) holds [2^(i-1), 2^i): i = floor(log2(value)) + 1.
  // Values >= 2^62 share the last bucket, which is therefore
  // [2^62, 2^64) rather than a clean power-of-two range.
  return std::min(64 - __builtin_clzll(value), kNumBuckets - 1);
}

uint64_t Histogram::BucketUpperBound(int i) {
  if (i <= 0) return 0;
  if (i >= kNumBuckets - 1) return UINT64_MAX;
  return (uint64_t{1} << i) - 1;
}

uint64_t Histogram::BucketLowerBound(int i) {
  if (i <= 0) return 0;
  return uint64_t{1} << (i - 1);
}

namespace {

void AtomicStoreMin(std::atomic<uint64_t>* a, uint64_t value) {
  uint64_t prev = a->load(std::memory_order_relaxed);
  while (value < prev &&
         !a->compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
}

void AtomicStoreMax(std::atomic<uint64_t>* a, uint64_t value) {
  uint64_t prev = a->load(std::memory_order_relaxed);
  while (value > prev &&
         !a->compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

uint64_t Histogram::Min() const {
  uint64_t v = min_.load(std::memory_order_relaxed);
  return v == UINT64_MAX ? 0 : v;
}

void Histogram::Record(uint64_t value) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  AtomicStoreMin(&min_, value);
  AtomicStoreMax(&max_, value);
  buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

double HistogramSnapshot::Mean() const {
  if (count == 0) return 0.0;
  return static_cast<double>(sum) / static_cast<double>(count);
}

uint64_t HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the requested percentile, at least 1 so p=0 hits the first
  // populated bucket.
  uint64_t rank = static_cast<uint64_t>(p / 100.0 * static_cast<double>(count));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    if (buckets[i] == 0) continue;
    uint64_t before = seen;
    seen += buckets[i];
    if (seen < rank) continue;
    // Interpolate linearly within the bucket: the rank-th recording is
    // (rank - before) of this bucket's `buckets[i]` values. The exact
    // extrema clamp the estimate (in particular for the open-ended last
    // bucket, whose nominal upper bound is UINT64_MAX).
    uint64_t lo = std::max(Histogram::BucketLowerBound(i), min);
    uint64_t hi = std::min(Histogram::BucketUpperBound(i), max);
    if (hi <= lo) return std::clamp(lo, min, max);
    double fraction = static_cast<double>(rank - before) /
                      static_cast<double>(buckets[i]);
    uint64_t v = lo + static_cast<uint64_t>(
                          static_cast<double>(hi - lo) * fraction + 0.5);
    return std::clamp(v, min, max);
  }
  return max;
}

MetricsSnapshot MetricsSnapshot::DeltaSince(const MetricsSnapshot& base) const {
  MetricsSnapshot out;
  for (const auto& [name, value] : counters) {
    auto it = base.counters.find(name);
    uint64_t before = it == base.counters.end() ? 0 : it->second;
    out.counters[name] = value >= before ? value - before : value;
  }
  for (const auto& [name, hist] : histograms) {
    auto it = base.histograms.find(name);
    if (it == base.histograms.end()) {
      out.histograms[name] = hist;
      continue;
    }
    const HistogramSnapshot& before = it->second;
    HistogramSnapshot d;
    d.count = hist.count >= before.count ? hist.count - before.count : 0;
    d.sum = hist.sum >= before.sum ? hist.sum - before.sum : 0;
    // Extrema are not invertible: the delta carries the whole-history
    // min/max (a conservative envelope for the interval's recordings).
    if (d.count != 0) {
      d.min = hist.min;
      d.max = hist.max;
    }
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      d.buckets[i] = hist.buckets[i] >= before.buckets[i]
                         ? hist.buckets[i] - before.buckets[i]
                         : 0;
    }
    out.histograms[name] = d;
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(name, &out);
    out.push_back(':');
    out.append(FormatU64(value));
  }
  out.append("},\"histograms\":{");
  first = true;
  for (const auto& [name, hist] : histograms) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(name, &out);
    out.append(":{\"count\":");
    out.append(FormatU64(hist.count));
    out.append(",\"sum\":");
    out.append(FormatU64(hist.sum));
    out.append(",\"min\":");
    out.append(FormatU64(hist.min));
    out.append(",\"max\":");
    out.append(FormatU64(hist.max));
    out.append(",\"buckets\":[");
    // Trailing empty buckets are elided; bucket i covers [2^(i-1), 2^i).
    int last = Histogram::kNumBuckets - 1;
    while (last > 0 && hist.buckets[last] == 0) --last;
    for (int i = 0; i <= last; ++i) {
      if (i > 0) out.push_back(',');
      out.append(FormatU64(hist.buckets[i]));
    }
    out.append("]}");
  }
  out.append("}}");
  return out;
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    out.append(name);
    out.append(" = ");
    out.append(FormatU64(value));
    out.push_back('\n');
  }
  for (const auto& [name, hist] : histograms) {
    out.append(name);
    out.append(": count=");
    out.append(FormatU64(hist.count));
    out.append(" sum=");
    out.append(FormatU64(hist.sum));
    out.append(" mean=");
    out.append(FormatDouble(hist.Mean()));
    out.append(" min=");
    out.append(FormatU64(hist.min));
    out.append(" p50~");
    out.append(FormatU64(hist.Percentile(50)));
    out.append(" p90~");
    out.append(FormatU64(hist.Percentile(90)));
    out.append(" p99~");
    out.append(FormatU64(hist.Percentile(99)));
    out.append(" max=");
    out.append(FormatU64(hist.max));
    out.push_back('\n');
  }
  return out;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  MutexLock lock(&mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  MutexLock lock(&mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(&mu_);
  MetricsSnapshot out;
  for (const auto& [name, counter] : counters_) {
    out.counters[name] = counter->Value();
  }
  for (const auto& [name, hist] : histograms_) {
    HistogramSnapshot s;
    s.count = hist->Count();
    s.sum = hist->Sum();
    s.min = hist->Min();
    s.max = hist->Max();
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      s.buckets[i] = hist->BucketCount(i);
    }
    out.histograms[name] = s;
  }
  return out;
}

void MetricsRegistry::Reset() {
  MutexLock lock(&mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* const kGlobal = new MetricsRegistry();
  return *kGlobal;
}

}  // namespace graphql::obs
