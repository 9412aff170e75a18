// Commit-protocol tests for GraphStore: version semantics, snapshot
// isolation, injected commit aborts, and the many-thread hammer. The
// hammer's contract is the strong one from the design: every result a
// reader observes is bit-identical to some *serial* snapshot version —
// version v+1 differs from v by exactly one commit, and a pinned snapshot
// never changes underneath a running reader. Runs in the TSan CI lane.

#include "server/store.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "io/serialize.h"

namespace graphql::server {
namespace {

/// A small unique collection: one graph whose single node carries `stamp`.
GraphCollection StampedCollection(const std::string& name, int64_t stamp) {
  Graph g("G");
  AttrTuple t;
  t.Set("stamp", Value(stamp));
  g.AddNode("a", t);
  GraphCollection c(name);
  c.Add(std::move(g));
  return c;
}

int64_t StampOf(const GraphCollection& c) {
  return c[0].node(0).attrs.GetOrNull("stamp").AsInt();
}

TEST(ServerStoreCommitTest, VersionsAdvanceByOnePerCommit) {
  GraphStore store;
  EXPECT_EQ(store.version(), 0u);
  EXPECT_TRUE(store.Pin()->docs.empty());

  auto v1 = store.Publish("A", StampedCollection("A", 1));
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, 1u);
  auto v2 = store.Publish("A", StampedCollection("A", 2));
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 2u);
  auto v3 = store.Drop("A");
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(*v3, 3u);
  EXPECT_EQ(store.version(), 3u);
  EXPECT_EQ(store.commits(), 3u);
  EXPECT_TRUE(store.Pin()->docs.empty());

  // Dropping a doc that is not there commits nothing.
  EXPECT_EQ(store.Drop("A").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.version(), 3u);
  EXPECT_EQ(store.commits(), 3u);
}

TEST(ServerStoreCommitTest, PinnedSnapshotSurvivesLaterCommits) {
  GraphStore store;
  ASSERT_TRUE(store.Publish("A", StampedCollection("A", 1)).ok());
  std::shared_ptr<const GraphStore::StoreSnapshot> pinned = store.Pin();
  ASSERT_TRUE(store.Publish("A", StampedCollection("A", 2)).ok());
  ASSERT_TRUE(store.Drop("A").ok());

  // The old snapshot still sees stamp 1 even though the doc has since been
  // replaced and dropped.
  EXPECT_EQ(pinned->version, 1u);
  ASSERT_EQ(pinned->docs.count("A"), 1u);
  EXPECT_EQ(StampOf(*pinned->docs.at("A")), 1);
  EXPECT_TRUE(store.Pin()->docs.empty());
}

TEST(ServerStoreCommitTest, InjectedAbortPublishesNothing) {
  FaultInjector injector;
  injector.AddRule(GovernPoint::kCommit, 2, TripKind::kMemory);
  GraphStore store;
  store.set_fault_injector(&injector);

  ASSERT_TRUE(store.Publish("A", StampedCollection("A", 1)).ok());
  // The second commit aborts inside the commit lock, after staging but
  // before publication: no version bump, no visibility change.
  auto r = store.Publish("A", StampedCollection("A", 2));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(store.version(), 1u);
  EXPECT_EQ(store.commits(), 1u);
  EXPECT_EQ(store.aborted_commits(), 1u);
  EXPECT_EQ(StampOf(*store.Pin()->docs.at("A")), 1);

  // The rule fired once; the store recovers on the next commit.
  ASSERT_TRUE(store.Publish("A", StampedCollection("A", 3)).ok());
  EXPECT_EQ(store.version(), 2u);
  EXPECT_EQ(StampOf(*store.Pin()->docs.at("A")), 3);
}

TEST(ServerStoreCommitTest, InjectedCancelMapsToCancelled) {
  FaultInjector injector;
  injector.AddRule(GovernPoint::kCommit, 1, TripKind::kCancelled);
  GraphStore store;
  store.set_fault_injector(&injector);
  auto r = store.Publish("A", StampedCollection("A", 1));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(store.version(), 0u);
}

// The hammer: writers race to commit distinct collections under one name
// while readers continuously pin and render. Every reader observation
// must be bit-identical to the serial content recorded for that version,
// and the final history must be dense: versions 1..N, one commit each.
TEST(ServerStoreCommitTest, HammerEveryReadMatchesASerialVersion) {
  constexpr int kWriters = 4;
  constexpr int kCommitsPerWriter = 50;
  constexpr int kReaders = 4;
  constexpr int kTotal = kWriters * kCommitsPerWriter;

  GraphStore store;
  // version → exact serialized content committed at that version.
  std::mutex mu;
  std::map<uint64_t, std::string> serial;

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kCommitsPerWriter; ++i) {
        GraphCollection c = StampedCollection("D", w * 1000 + i);
        // Publish() copies; render the same content we hand it. Rendering
        // is structural, so the store's CompileAll() can't perturb it.
        std::string text = io::WriteCollectionText(c);
        auto v = store.Publish("D", std::move(c));
        ASSERT_TRUE(v.ok()) << v.status().ToString();
        std::lock_guard<std::mutex> lock(mu);
        auto [it, inserted] = serial.emplace(*v, std::move(text));
        ASSERT_TRUE(inserted) << "two commits claimed version " << *v;
      }
    });
  }

  std::atomic<bool> done{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::vector<std::pair<uint64_t, std::string>> seen;
      // At least one pin: a reader first scheduled after the writers
      // finished still reads (the final version).
      do {
        std::shared_ptr<const GraphStore::StoreSnapshot> snap = store.Pin();
        if (snap->version == 0) continue;
        auto it = snap->docs.find("D");
        ASSERT_NE(it, snap->docs.end())
            << "version " << snap->version << " lost doc D";
        seen.emplace_back(snap->version,
                          io::WriteCollectionText(*it->second));
      } while (!done.load(std::memory_order_acquire));
      reads.fetch_add(seen.size(), std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mu);
      for (const auto& [version, text] : seen) {
        auto sit = serial.find(version);
        ASSERT_NE(sit, serial.end()) << "read uncommitted version "
                                     << version;
        EXPECT_EQ(text, sit->second)
            << "version " << version << " content drifted";
      }
    });
  }

  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // Dense serial history: versions 1..N, each committed exactly once.
  EXPECT_EQ(store.version(), static_cast<uint64_t>(kTotal));
  EXPECT_EQ(store.commits(), static_cast<uint64_t>(kTotal));
  EXPECT_EQ(store.aborted_commits(), 0u);
  ASSERT_EQ(serial.size(), static_cast<size_t>(kTotal));
  EXPECT_EQ(serial.begin()->first, 1u);
  EXPECT_EQ(serial.rbegin()->first, static_cast<uint64_t>(kTotal));
  EXPECT_GT(reads.load(), 0u);
}

// Writers + injected aborts: aborted commits must leave no trace in the
// version sequence, and surviving commits stay dense apart from them.
TEST(ServerStoreCommitTest, HammerWithInjectedAborts) {
  constexpr int kWriters = 4;
  constexpr int kCommitsPerWriter = 25;

  FaultInjector injector;
  for (uint64_t at = 5; at <= 100; at += 10) {
    injector.AddRule(GovernPoint::kCommit, at, TripKind::kMemory);
  }
  GraphStore store;
  store.set_fault_injector(&injector);

  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> aborted{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kCommitsPerWriter; ++i) {
        auto v = store.Publish("D", StampedCollection("D", w * 1000 + i));
        if (v.ok()) {
          committed.fetch_add(1, std::memory_order_relaxed);
        } else {
          ASSERT_EQ(v.status().code(), StatusCode::kResourceExhausted);
          aborted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : writers) t.join();

  EXPECT_EQ(committed.load() + aborted.load(),
            static_cast<uint64_t>(kWriters * kCommitsPerWriter));
  EXPECT_EQ(aborted.load(), 10u);
  EXPECT_EQ(store.version(), committed.load());
  EXPECT_EQ(store.commits(), committed.load());
  EXPECT_EQ(store.aborted_commits(), aborted.load());
}

}  // namespace
}  // namespace graphql::server
