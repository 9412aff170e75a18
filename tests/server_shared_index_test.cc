// Concurrency differential for the label index shared on each graph
// snapshot and for plans that outlive unrelated commits. Four reader
// sessions run indexed-pattern and collection queries, each against a
// freshly pinned store version exactly as Session::RunQuery does, while a
// writer republishes both an unrelated document and the indexed one.
// Every answer must equal a fresh serial Evaluator's answer over private
// copies of the same pinned documents, and the readers together must
// build exactly one index per distinct indexed snapshot they pinned.

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/evaluator.h"
#include "exec/registry.h"
#include "gtest/gtest.h"
#include "io/serialize.h"
#include "server/store.h"
#include "workload/erdos_renyi.h"

namespace graphql::server {
namespace {

constexpr int kReaders = 4;
constexpr int kReadsPerReader = 48;
constexpr int kCommits = 24;

/// Queries 0 and 1 select from the indexed document, query 2 from the
/// small collection.
const char* const kQueries[] = {
    R"(for graph Q { node a <label="L0">; node b <label="L1">; edge (a, b); }
       exhaustive in doc("Net") return Q;)",
    R"(for graph Q { node a <label="L2">; node b <label="L2">;
                     node c <label="L3">; edge (a, b); edge (b, c); }
       exhaustive in doc("Net") return Q;)",
    R"(for graph Q { node a <author>; node p <paper>; edge (a, p); }
       exhaustive in doc("Papers") return Q;)",
};
constexpr size_t kNumQueries = sizeof(kQueries) / sizeof(kQueries[0]);

bool Indexed(size_t query) { return query < 2; }

/// Generation `gen` of the indexed document: one graph above the
/// evaluator's 512-node index threshold.
GraphCollection Net(uint64_t gen) {
  Rng rng(gen);
  workload::ErdosRenyiOptions opts;
  opts.num_nodes = 600;
  opts.num_edges = 1800;
  opts.num_labels = 5;
  GraphCollection c;
  c.Add(workload::MakeErdosRenyi(opts, &rng));
  return c;
}

/// Generation `gen` of the unrelated document: a few small papers.
GraphCollection Papers(uint64_t gen) {
  std::string text;
  for (uint64_t i = 0; i <= gen % 4; ++i) {
    const std::string id = std::to_string(gen) + "_" + std::to_string(i);
    text += "graph G" + id + " { node a <author name=\"A" + id +
            "\">; node p <paper title=\"P" + id + "\">; edge e (a, p); };\n";
  }
  Result<GraphCollection> c = io::ReadCollectionText(text);
  EXPECT_TRUE(c.ok()) << c.status();
  return c.ok() ? std::move(c).value() : GraphCollection();
}

std::string Answer(const Result<exec::QueryResult>& result) {
  if (!result.ok()) return "error: " + result.status().ToString();
  return io::WriteCollectionText(result->returned);
}

struct Observation {
  /// Held until the end, so no snapshot address is reused meanwhile.
  std::shared_ptr<const GraphStore::StoreSnapshot> pin;
  size_t query = 0;
  std::string answer;
};

TEST(SharedIndexDifferentialTest,
     SessionsMatchSerialAnswersWhileDocsRepublish) {
  GraphStore store;
  ASSERT_TRUE(store.Publish("Net", Net(0)).ok());
  ASSERT_TRUE(store.Publish("Papers", Papers(0)).ok());

  // The writer paces its commits by the readers' progress, and every
  // reader waits at its midpoint for the first commit, so commits land
  // between reads on any machine.
  const uint64_t first_version = store.version();
  constexpr int kStep = kReaders * kReadsPerReader / (kCommits + 1);
  static_assert(kStep <= kReaders * (kReadsPerReader / 2),
                "the first commit must not wait for the midpoint");
  std::atomic<int> reads_done{0};
  std::atomic<bool> readers_done{false};
  std::atomic<bool> writer_done{false};
  auto pause = [] {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  };
  std::thread writer([&] {
    for (int k = 1; k <= kCommits; ++k) {
      while (reads_done.load() < k * kStep && !readers_done.load()) pause();
      if (readers_done.load()) break;
      // Alternate: the unrelated document, then the indexed one.
      const uint64_t gen = static_cast<uint64_t>(k);
      Result<uint64_t> v = k % 2 == 1 ? store.Publish("Papers", Papers(gen))
                                      : store.Publish("Net", Net(gen));
      EXPECT_TRUE(v.ok()) << v.status();
    }
    writer_done.store(true);
  });

  std::vector<std::vector<Observation>> seen(kReaders);
  std::vector<uint64_t> builds(kReaders), hits(kReaders), plan_hits(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      exec::DocumentRegistry view;
      exec::Evaluator ev(&view);
      for (int i = 0; i < kReadsPerReader; ++i) {
        if (i == kReadsPerReader / 2) {
          while (store.version() == first_version && !writer_done.load()) {
            pause();
          }
        }
        const size_t q = static_cast<size_t>(r + i) % kNumQueries;
        std::shared_ptr<const GraphStore::StoreSnapshot> pin = store.Pin();
        view.Clear();
        pin->FillRegistry(&view);
        std::string answer = Answer(ev.RunSource(kQueries[q]));
        seen[r].push_back({std::move(pin), q, std::move(answer)});
        reads_done.fetch_add(1);
      }
      builds[r] = ev.metrics()->GetCounter("exec.index.builds")->Value();
      hits[r] = ev.metrics()->GetCounter("exec.index.cache_hits")->Value();
      plan_hits[r] = ev.metrics()->GetCounter("plan_cache.hit")->Value();
    });
  }
  for (std::thread& t : readers) t.join();
  readers_done.store(true);
  writer.join();

  // References: a fresh evaluator at threads 0 over private copies of the
  // pinned documents (copies compile their own snapshots, so they share
  // no index with the readers), one per (pinned version, query).
  std::map<std::pair<uint64_t, size_t>, std::string> reference;
  std::set<const GraphSnapshot*> indexed_snapshots;
  size_t indexed_reads = 0;
  std::set<uint64_t> versions;
  for (const std::vector<Observation>& obs : seen) {
    ASSERT_EQ(obs.size(), static_cast<size_t>(kReadsPerReader));
    for (const Observation& o : obs) {
      versions.insert(o.pin->version);
      if (Indexed(o.query)) {
        ++indexed_reads;
        indexed_snapshots.insert((*o.pin->docs.at("Net"))[0].snapshot().get());
      }
      auto key = std::make_pair(o.pin->version, o.query);
      auto it = reference.find(key);
      if (it == reference.end()) {
        exec::DocumentRegistry copies;
        for (const auto& [name, doc] : o.pin->docs) {
          copies.Register(name, GraphCollection(*doc));
        }
        exec::Evaluator serial(&copies);
        serial.mutable_match_options()->num_threads = 0;
        it = reference.emplace(key, Answer(serial.RunSource(kQueries[o.query])))
                 .first;
        EXPECT_EQ(it->second.rfind("error", 0), std::string::npos)
            << it->second;
      }
      EXPECT_EQ(o.answer, it->second)
          << "version " << o.pin->version << ", query " << o.query;
    }
  }

  uint64_t total_builds = 0, total_hits = 0, total_plan_hits = 0;
  for (int r = 0; r < kReaders; ++r) {
    total_builds += builds[r];
    total_hits += hits[r];
    total_plan_hits += plan_hits[r];
  }
  EXPECT_EQ(total_builds, indexed_snapshots.size());
  EXPECT_EQ(total_builds + total_hits, indexed_reads);
  // Every reader compiles each query once; commits expire no plan.
  EXPECT_EQ(total_plan_hits,
            static_cast<uint64_t>(kReaders * (kReadsPerReader - kNumQueries)));
  EXPECT_GT(versions.size(), 1u);
}

}  // namespace
}  // namespace graphql::server
