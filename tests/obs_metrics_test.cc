#include "obs/metrics.h"

#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace graphql::obs {
namespace {

TEST(CounterTest, IncrementAndReset) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.counter");
  EXPECT_EQ(c->Value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->Value(), 42u);
  c->Reset();
  EXPECT_EQ(c->Value(), 0u);
}

TEST(CounterTest, RegistryReturnsSamePointerForSameName) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x");
  Counter* b = registry.GetCounter("x");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, registry.GetCounter("y"));
  // Lookups take views: a view into a longer buffer finds the stored name
  // by its own bytes, and a prefix of a stored name is another name.
  const std::string buffer = "match.retrieve.feasible_hits+tail";
  const std::string_view name(buffer.data(), buffer.size() - 5);
  Counter* hits = registry.GetCounter("match.retrieve.feasible_hits");
  EXPECT_EQ(registry.GetCounter(name), hits);
  EXPECT_NE(registry.GetCounter(name.substr(0, 14)), hits);
  Histogram* h = registry.GetHistogram("match.query.us");
  EXPECT_EQ(registry.GetHistogram(std::string_view(buffer).substr(0, 5)),
            registry.GetHistogram("match"));
  EXPECT_EQ(registry.GetHistogram(std::string("match.query.us")), h);
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds 0; bucket i holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketOf(0), 0);
  EXPECT_EQ(Histogram::BucketOf(1), 1);
  EXPECT_EQ(Histogram::BucketOf(2), 2);
  EXPECT_EQ(Histogram::BucketOf(3), 2);
  EXPECT_EQ(Histogram::BucketOf(4), 3);
  EXPECT_EQ(Histogram::BucketOf(1023), 10);
  EXPECT_EQ(Histogram::BucketOf(1024), 11);
  // Values >= 2^62 clamp into the final bucket (no out-of-range index).
  EXPECT_EQ(Histogram::BucketOf(UINT64_MAX), Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketOf(uint64_t{1} << 63),
            Histogram::kNumBuckets - 1);

  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(10), 1023u);
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kNumBuckets - 1),
            UINT64_MAX);
  // Every value lies at or below its bucket's upper bound.
  for (uint64_t v : {0ull, 1ull, 7ull, 100ull, 4096ull, 1000000ull}) {
    EXPECT_LE(v, Histogram::BucketUpperBound(Histogram::BucketOf(v))) << v;
  }
}

TEST(HistogramTest, RecordAndSnapshot) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat.us");
  h->Record(0);
  h->Record(1);
  h->Record(100);
  h->Record(100);
  EXPECT_EQ(h->Count(), 4u);
  EXPECT_EQ(h->Sum(), 201u);
  EXPECT_EQ(h->BucketCount(Histogram::BucketOf(0)), 1u);
  EXPECT_EQ(h->BucketCount(Histogram::BucketOf(100)), 2u);

  MetricsSnapshot snap = registry.Snapshot();
  const HistogramSnapshot& hs = snap.histograms.at("lat.us");
  EXPECT_EQ(hs.count, 4u);
  EXPECT_EQ(hs.sum, 201u);
  EXPECT_EQ(hs.min, 0u);
  EXPECT_EQ(hs.max, 100u);
  EXPECT_DOUBLE_EQ(hs.Mean(), 201.0 / 4.0);
  // The exact max clamps the top percentile (bucket 7 = [64,128) alone
  // would report 127).
  EXPECT_EQ(hs.Percentile(100), 100u);
  EXPECT_EQ(hs.Percentile(25), 0u);  // First recording is the value 0.
}

TEST(HistogramTest, PercentileInterpolatesWithinBucket) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat.us");
  // 100 values spread across [64, 128): all land in bucket 7, where the
  // old upper-bound estimate returned 127 for every percentile.
  for (uint64_t v = 0; v < 100; ++v) h->Record(64 + (v * 64) / 100);
  HistogramSnapshot hs = registry.Snapshot().histograms.at("lat.us");
  uint64_t p50 = hs.P50();
  EXPECT_GE(p50, 64u);
  EXPECT_LT(p50, 127u);  // Strictly better than the bucket bound.
  EXPECT_LE(hs.P50(), hs.P95());
  EXPECT_LE(hs.P95(), hs.P99());
  EXPECT_LE(hs.P99(), hs.max);
  EXPECT_GE(hs.Percentile(0), hs.min);
}

TEST(HistogramTest, SingleValuePercentilesAreExact) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat.us");
  h->Record(5);
  HistogramSnapshot hs = registry.Snapshot().histograms.at("lat.us");
  EXPECT_EQ(hs.min, 5u);
  EXPECT_EQ(hs.max, 5u);
  EXPECT_EQ(hs.P50(), 5u);
  EXPECT_EQ(hs.P99(), 5u);
}

TEST(HistogramTest, MinMaxAndReset) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat.us");
  h->Record(7);
  h->Record(900);
  EXPECT_EQ(h->Min(), 7u);
  EXPECT_EQ(h->Max(), 900u);
  h->Reset();
  EXPECT_EQ(h->Min(), 0u);
  EXPECT_EQ(h->Max(), 0u);
}

TEST(HistogramTest, PercentileOnEmptyIsZero) {
  HistogramSnapshot hs;
  EXPECT_EQ(hs.Percentile(50), 0u);
  EXPECT_DOUBLE_EQ(hs.Mean(), 0.0);
}

TEST(MetricsRegistryTest, SnapshotAndReset) {
  MetricsRegistry registry;
  registry.GetCounter("a")->Increment(5);
  registry.GetHistogram("h")->Record(9);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("a"), 5u);
  EXPECT_EQ(snap.histograms.at("h").count, 1u);

  registry.Reset();
  MetricsSnapshot after = registry.Snapshot();
  // Names stay registered; values are zeroed.
  EXPECT_EQ(after.counters.at("a"), 0u);
  EXPECT_EQ(after.histograms.at("h").count, 0u);
  EXPECT_EQ(after.histograms.at("h").sum, 0u);
}

TEST(MetricsRegistryTest, DeltaSince) {
  MetricsRegistry registry;
  registry.GetCounter("a")->Increment(10);
  registry.GetHistogram("h")->Record(4);
  MetricsSnapshot before = registry.Snapshot();

  registry.GetCounter("a")->Increment(7);
  registry.GetCounter("b")->Increment(1);  // New since `before`.
  registry.GetHistogram("h")->Record(4);
  registry.GetHistogram("h")->Record(4);
  MetricsSnapshot delta = registry.Snapshot().DeltaSince(before);

  EXPECT_EQ(delta.counters.at("a"), 7u);
  EXPECT_EQ(delta.counters.at("b"), 1u);
  EXPECT_EQ(delta.histograms.at("h").count, 2u);
  EXPECT_EQ(delta.histograms.at("h").sum, 8u);
  EXPECT_EQ(delta.histograms.at("h").buckets[Histogram::BucketOf(4)], 2u);
}

TEST(MetricsRegistryTest, DeltaSinceMetricsAbsentFromBase) {
  MetricsRegistry registry;
  MetricsSnapshot before = registry.Snapshot();  // Empty base.

  registry.GetCounter("new.counter")->Increment(11);
  registry.GetHistogram("new.hist")->Record(6);
  registry.GetHistogram("new.hist")->Record(20);
  MetricsSnapshot delta = registry.Snapshot().DeltaSince(before);

  // Metrics the base never saw pass through whole.
  EXPECT_EQ(delta.counters.at("new.counter"), 11u);
  const HistogramSnapshot& h = delta.histograms.at("new.hist");
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.sum, 26u);
  EXPECT_EQ(h.min, 6u);
  EXPECT_EQ(h.max, 20u);
  EXPECT_EQ(h.buckets[Histogram::BucketOf(6)], 1u);
  EXPECT_EQ(h.buckets[Histogram::BucketOf(20)], 1u);
}

TEST(MetricsRegistryTest, JsonExport) {
  MetricsRegistry registry;
  registry.GetCounter("match.queries")->Increment(3);
  registry.GetHistogram("match.query.us")->Record(5);
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"match.queries\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"histograms\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"match.query.us\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sum\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"buckets\":[0,0,0,1]"), std::string::npos) << json;
}

TEST(MetricsRegistryTest, TextExport) {
  MetricsRegistry registry;
  registry.GetCounter("a.b")->Increment(2);
  registry.GetHistogram("lat")->Record(1);
  std::string text = registry.ToText();
  EXPECT_NE(text.find("a.b = 2"), std::string::npos) << text;
  EXPECT_NE(text.find("lat:"), std::string::npos) << text;
  EXPECT_NE(text.find("count=1"), std::string::npos) << text;
}

TEST(MetricsRegistryTest, ConcurrentIncrementsAreExact) {
  // Exercised under TSan in CI: concurrent Record calls must keep the
  // extrema and the buckets consistent with the count.
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  Counter* c = registry.GetCounter("concurrent.counter");
  Histogram* h = registry.GetHistogram("concurrent.hist");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, c, h] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Record(static_cast<uint64_t>(i % 64));
        // Lookups from several threads must also be safe.
        registry.GetCounter("concurrent.counter")->Increment(0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->Value(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(h->Count(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(h->Min(), 0u);
  EXPECT_EQ(h->Max(), 63u);
  uint64_t bucket_total = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    bucket_total += h->BucketCount(i);
  }
  EXPECT_EQ(bucket_total, h->Count());
}

}  // namespace
}  // namespace graphql::obs
