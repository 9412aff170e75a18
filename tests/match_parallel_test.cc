// Parallel-selection tests: bit-exact determinism of the work-stealing
// pipeline against the serial path, metric-sink-free operation, and the
// concurrency scenarios the TSan CI job hammers (concurrent governor
// trips, cross-thread cancellation, steal-heavy skew).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "algebra/pattern.h"
#include "common/governor.h"
#include "common/thread_pool.h"
#include "match/pipeline.h"
#include "obs/metrics.h"
#include "workload/erdos_renyi.h"
#include "workload/queries.h"

namespace graphql {
namespace {

using Binding = std::pair<std::vector<NodeId>, std::vector<EdgeId>>;

std::vector<Binding> Bindings(
    const std::vector<algebra::MatchedGraph>& matches) {
  std::vector<Binding> out;
  out.reserve(matches.size());
  for (const algebra::MatchedGraph& m : matches) {
    out.emplace_back(m.node_mapping, m.edge_mapping);
  }
  return out;
}

Graph MakeData(size_t n, uint64_t seed) {
  Rng rng(seed);
  workload::ErdosRenyiOptions opts;
  opts.num_nodes = n;
  opts.num_edges = 5 * n;
  opts.num_labels = 6;
  return workload::MakeErdosRenyi(opts, &rng);
}

/// Serial (threads = 0) vs parallel (threads = 1, 2, 8) over a property
/// corpus: the match list — bindings AND their order — must be identical,
/// in every candidate mode, in exhaustive, capped, and first-match modes.
TEST(MatchParallelTest, DeterministicAcrossThreadCounts) {
  ThreadPool pool(7);
  for (uint64_t seed : {1u, 7u, 23u}) {
    Graph g = MakeData(40, seed * 1013u);
    match::LabelIndex index = match::LabelIndex::Build(g);
    Rng qrng(seed);
    for (size_t qsize : {3u, 4u}) {
      auto q = workload::ExtractConnectedQuery(g, qsize, &qrng);
      if (!q.ok()) continue;
      algebra::GraphPattern p = algebra::GraphPattern::FromGraph(*q);
      for (auto mode : {match::CandidateMode::kLabelOnly,
                        match::CandidateMode::kProfile,
                        match::CandidateMode::kNeighborhood}) {
        for (bool exhaustive : {true, false}) {
          for (size_t cap : {size_t{SIZE_MAX}, size_t{3}}) {
            match::PipelineOptions serial;
            serial.candidate_mode = mode;
            serial.match.exhaustive = exhaustive;
            serial.match.max_matches = cap;
            serial.num_threads = 0;
            auto want = match::MatchPattern(p, g, &index, serial);
            ASSERT_TRUE(want.ok()) << want.status();
            for (int threads : {1, 2, 8}) {
              match::PipelineOptions par = serial;
              par.num_threads = threads;
              par.pool = &pool;
              match::PipelineStats stats;
              auto got = match::MatchPattern(p, g, &index, par, &stats);
              ASSERT_TRUE(got.ok()) << got.status();
              EXPECT_EQ(stats.threads, std::min(threads, 8));
              EXPECT_EQ(Bindings(*got), Bindings(*want))
                  << "seed=" << seed << " qsize=" << qsize
                  << " mode=" << static_cast<int>(mode)
                  << " exhaustive=" << exhaustive << " cap=" << cap
                  << " threads=" << threads;
            }
          }
        }
      }
    }
  }
}

/// The default pipeline — profiles, full refinement, greedy order —
/// returns the serial list in the serial order at every thread count. On
/// this graph a refinement that kept extra candidates with more workers
/// (a level-synchronous pass that removes failures only at the level's
/// end) would pick another greedy order and enumerate the seven matches
/// in another order.
TEST(MatchParallelTest, GreedyOrderListsEqualSerial) {
  ThreadPool pool(3);
  Rng rng(2 * 977 + 100);
  workload::ErdosRenyiOptions opts;
  opts.num_nodes = 100;
  opts.num_edges = 300;
  opts.num_labels = 4;
  Graph g = workload::MakeErdosRenyi(opts, &rng);
  match::LabelIndex index = match::LabelIndex::Build(g);
  auto q = workload::ExtractConnectedQuery(g, 4, &rng);
  ASSERT_TRUE(q.ok());
  algebra::GraphPattern p = algebra::GraphPattern::FromGraph(*q);
  std::vector<Binding> want;
  for (int threads : {0, 2, 4}) {
    match::PipelineOptions o;
    o.metrics = nullptr;
    o.num_threads = threads;
    o.pool = &pool;
    auto got = match::MatchPattern(p, g, &index, o);
    ASSERT_TRUE(got.ok()) << got.status();
    if (threads == 0) {
      want = Bindings(*got);
      ASSERT_EQ(want.size(), 7u);
      continue;
    }
    EXPECT_EQ(Bindings(*got), want) << "threads " << threads;
  }
}

/// Every stage must tolerate a null metric sink and no tracer.
TEST(MatchParallelTest, RunsWithNullMetricsAndNoTracer) {
  ThreadPool pool(3);
  Graph g = MakeData(30, 99);
  match::LabelIndex index = match::LabelIndex::Build(g);
  Rng qrng(5);
  auto q = workload::ExtractConnectedQuery(g, 3, &qrng);
  ASSERT_TRUE(q.ok());
  algebra::GraphPattern p = algebra::GraphPattern::FromGraph(*q);
  for (int threads : {0, 4}) {
    match::PipelineOptions o;
    o.candidate_mode = match::CandidateMode::kNeighborhood;
    o.metrics = nullptr;
    o.tracer = nullptr;
    o.num_threads = threads;
    o.pool = &pool;
    auto got = match::MatchPattern(p, g, &index, o);
    ASSERT_TRUE(got.ok()) << got.status();
  }
}

/// TSan target: an injected search trip with eight workers running root
/// tasks concurrently. The workers only count; the calling thread replays
/// their counts, so the trip lands on the serial run's step and the query
/// ends with the serial partial list, trip and consumption.
TEST(MatchParallelTest, ConcurrentGovernorTripMidSearch) {
  ThreadPool pool(7);
  Graph g = MakeData(60, 4242);
  match::LabelIndex index = match::LabelIndex::Build(g);
  Rng qrng(11);
  auto q = workload::ExtractConnectedQuery(g, 4, &qrng);
  ASSERT_TRUE(q.ok());
  algebra::GraphPattern p = algebra::GraphPattern::FromGraph(*q);

  std::vector<Binding> want;
  uint64_t want_steps = 0;
  for (int threads : {0, 8}) {
    FaultInjector injector;
    injector.AddRule(GovernPoint::kSearch, /*at=*/1, TripKind::kSteps);
    ResourceGovernor gov;
    gov.set_fault_injector(&injector);

    match::PipelineOptions o;
    o.candidate_mode = match::CandidateMode::kLabelOnly;
    o.refine_level = 0;
    o.governor = &gov;
    o.num_threads = threads;
    o.pool = &pool;
    auto got = match::MatchPattern(p, g, &index, o);
    ASSERT_TRUE(got.ok()) << got.status();  // Partial matches, not an error.
    EXPECT_TRUE(gov.tripped()) << "threads " << threads;
    EXPECT_EQ(gov.trip_kind(), TripKind::kSteps);
    EXPECT_EQ(gov.trip_point(), GovernPoint::kSearch);
    if (threads == 0) {
      want = Bindings(*got);
      want_steps = gov.steps_used();
      continue;
    }
    EXPECT_EQ(Bindings(*got), want);
    EXPECT_EQ(gov.steps_used(), want_steps);
  }
}

/// TSan target: cancellation arrives from a foreign thread mid-query.
/// Whether it lands before or after completion, there must be no race and
/// the observable state must be consistent.
TEST(MatchParallelTest, CrossThreadCancelMidSearch) {
  ThreadPool pool(7);
  Graph g = MakeData(120, 777);
  match::LabelIndex index = match::LabelIndex::Build(g);
  Rng qrng(3);
  auto q = workload::ExtractConnectedQuery(g, 5, &qrng);
  ASSERT_TRUE(q.ok());
  algebra::GraphPattern p = algebra::GraphPattern::FromGraph(*q);

  ResourceGovernor gov;
  gov.Arm(GovernorLimits{});
  std::thread canceller([&gov] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    gov.Cancel();
  });

  match::PipelineOptions o;
  o.candidate_mode = match::CandidateMode::kLabelOnly;
  o.refine_level = 0;
  o.governor = &gov;
  o.num_threads = 8;
  o.pool = &pool;
  auto got = match::MatchPattern(p, g, &index, o);
  canceller.join();
  ASSERT_TRUE(got.ok()) << got.status();
  if (gov.tripped()) {
    EXPECT_EQ(gov.trip_kind(), TripKind::kCancelled);
  }
}

/// TSan + scheduler target: one root's subtree dwarfs the others, so pool
/// threads must steal from the loaded worker's deque while it is popping
/// from the other end. Results still have to be bit-identical to serial.
TEST(MatchParallelTest, StealHeavySkewedRootsStayExact) {
  ThreadPool pool(7);
  Graph g = MakeData(150, 31337);
  match::LabelIndex index = match::LabelIndex::Build(g);
  Rng qrng(9);
  auto q = workload::ExtractConnectedQuery(g, 4, &qrng);
  ASSERT_TRUE(q.ok());
  algebra::GraphPattern p = algebra::GraphPattern::FromGraph(*q);

  match::PipelineOptions serial;
  serial.candidate_mode = match::CandidateMode::kLabelOnly;
  serial.refine_level = 0;
  serial.optimize_order = false;  // Declaration order: fat root lists.
  serial.num_threads = 0;
  auto want = match::MatchPattern(p, g, &index, serial);
  ASSERT_TRUE(want.ok()) << want.status();

  match::PipelineOptions par = serial;
  par.num_threads = 8;
  par.pool = &pool;
  auto got = match::MatchPattern(p, g, &index, par);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(Bindings(*got), Bindings(*want));
}

/// Capped and first-match searches skip roots the root-order merge would
/// discard; the merged lists must still equal serial at 2 and 4 workers.
/// Declaration order over label-only spaces gives many roots with hits,
/// so the cap is reached early and later roots are cut off. A search
/// counts as truncated once in the registry, however many of its roots
/// reached the cap.
TEST(MatchParallelTest, CappedAndFirstMatchListsEqualSerial) {
  ThreadPool pool(3);
  Graph g = MakeData(400, 4242);
  match::LabelIndex index = match::LabelIndex::Build(g);
  Rng qrng(17);
  int compared = 0;
  for (size_t qsize : {3u, 4u}) {
    auto q = workload::ExtractConnectedQuery(g, qsize, &qrng);
    ASSERT_TRUE(q.ok());
    algebra::GraphPattern p = algebra::GraphPattern::FromGraph(*q);
    // {exhaustive, max_matches}: three caps, then first-match mode.
    for (auto [exhaustive, cap] :
         {std::pair{true, size_t{1}}, std::pair{true, size_t{5}},
          std::pair{true, size_t{40}}, std::pair{false, SIZE_MAX}}) {
      match::PipelineOptions serial;
      serial.candidate_mode = match::CandidateMode::kLabelOnly;
      serial.refine_level = 0;
      serial.optimize_order = false;
      serial.match.exhaustive = exhaustive;
      serial.match.max_matches = cap;
      serial.num_threads = 0;
      auto want = match::MatchPattern(p, g, &index, serial);
      ASSERT_TRUE(want.ok()) << want.status();
      for (int threads : {2, 4}) {
        match::PipelineOptions par = serial;
        par.num_threads = threads;
        par.pool = &pool;
        obs::MetricsRegistry metrics;
        par.metrics = &metrics;
        match::PipelineStats stats;
        auto got = match::MatchPattern(p, g, &index, par, &stats);
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_EQ(Bindings(*got), Bindings(*want))
            << "qsize=" << qsize << " exhaustive=" << exhaustive
            << " cap=" << cap << " threads=" << threads;
        EXPECT_EQ(stats.search.truncated, exhaustive && want->size() >= cap);
        EXPECT_EQ(metrics.GetCounter("match.search.truncated")->Value(),
                  stats.search.truncated ? 1u : 0u)
            << "qsize=" << qsize << " cap=" << cap << " threads=" << threads;
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 16);
}

/// The shared pool honors an explicit thread ask even on small machines:
/// PipelineOptions defaulted from $GQL_THREADS must actually produce
/// multi-worker runs (this is what the GQL_THREADS=4 CI lane exercises).
TEST(MatchParallelTest, SharedPoolServesExplicitAsk) {
  Graph g = MakeData(30, 55);
  match::LabelIndex index = match::LabelIndex::Build(g);
  Rng qrng(2);
  auto q = workload::ExtractConnectedQuery(g, 3, &qrng);
  ASSERT_TRUE(q.ok());
  algebra::GraphPattern p = algebra::GraphPattern::FromGraph(*q);
  match::PipelineOptions o;
  o.num_threads = 2;  // Resolved against the shared pool.
  match::PipelineStats stats;
  auto got = match::MatchPattern(p, g, &index, o, &stats);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(stats.threads, 2);
}

}  // namespace
}  // namespace graphql
