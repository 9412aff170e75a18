// Resource-governor coverage: deadlines, cooperative cancellation, step
// and memory budgets, deterministic fault injection, and the graceful
// degradation paths across the selection pipeline, the datalog engine,
// the collection index, and the FLWR evaluator. The governed runs must
// always return OK with the partial work done so far; the trip itself is
// reported out-of-band (QueryResult::limits / the governor's state).

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "algebra/pattern.h"
#include "common/governor.h"
#include "common/rng.h"
#include "datalog/evaluator.h"
#include "exec/evaluator.h"
#include "gindex/collection_index.h"
#include "match/label_index.h"
#include "match/pipeline.h"
#include "motif/deriver.h"
#include "obs/metrics.h"
#include "workload/erdos_renyi.h"
#include "workload/queries.h"

namespace graphql {
namespace {

// ---------------------------------------------------------------------------
// FaultInjector parsing / matching.

TEST(FaultInjectorTest, ParsesSimpleRule) {
  auto inj = FaultInjector::Parse("refine@3");
  ASSERT_TRUE(inj.ok()) << inj.status();
  EXPECT_FALSE(inj->empty());
}

TEST(FaultInjectorTest, ParsesKindsAndLists) {
  auto inj = FaultInjector::Parse("search@1:deadline,datalog@5:cancel");
  ASSERT_TRUE(inj.ok()) << inj.status();
  EXPECT_EQ(inj->OnCharge(GovernPoint::kSearch), TripKind::kDeadline);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(inj->OnCharge(GovernPoint::kDatalog), TripKind::kNone);
  }
  EXPECT_EQ(inj->OnCharge(GovernPoint::kDatalog), TripKind::kCancelled);
}

TEST(FaultInjectorTest, ParsesRefineBudgetAlias) {
  auto inj = FaultInjector::Parse("refine_budget@2");
  ASSERT_TRUE(inj.ok()) << inj.status();
  EXPECT_EQ(inj->OnCharge(GovernPoint::kRefine), TripKind::kNone);
  EXPECT_EQ(inj->OnCharge(GovernPoint::kRefine), TripKind::kSteps);
}

TEST(FaultInjectorTest, RejectsMalformedSpecs) {
  EXPECT_EQ(FaultInjector::Parse("bogus@1").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultInjector::Parse("search").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultInjector::Parse("search@0").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultInjector::Parse("search@x").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultInjector::Parse("search@1:frobnicate").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FaultInjectorTest, FiresAtExactCountPerPoint) {
  FaultInjector inj;
  inj.AddRule(GovernPoint::kSearch, 3, TripKind::kSteps);
  EXPECT_EQ(inj.OnCharge(GovernPoint::kSearch), TripKind::kNone);
  EXPECT_EQ(inj.OnCharge(GovernPoint::kRefine), TripKind::kNone);
  EXPECT_EQ(inj.OnCharge(GovernPoint::kSearch), TripKind::kNone);
  EXPECT_EQ(inj.OnCharge(GovernPoint::kSearch), TripKind::kSteps);
  EXPECT_EQ(inj.OnCharge(GovernPoint::kSearch), TripKind::kNone);
}

// ---------------------------------------------------------------------------
// ResourceGovernor unit behavior.

TEST(ResourceGovernorTest, ZeroLimitsMeanUnlimited) {
  GovernorLimits limits;
  EXPECT_TRUE(limits.Unlimited());
  ResourceGovernor gov(limits);
  for (int i = 0; i < 100000; ++i) {
    ASSERT_TRUE(gov.Charge(1, GovernPoint::kSearch));
  }
  EXPECT_FALSE(gov.tripped());
  EXPECT_EQ(gov.steps_used(), 100000u);
  EXPECT_TRUE(gov.ToStatus().ok());
}

TEST(ResourceGovernorTest, StepBudgetTripsExactlyAndSticks) {
  ResourceGovernor gov(GovernorLimits{.max_steps = 100});
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(gov.Charge(1, GovernPoint::kSearch)) << i;
  }
  EXPECT_FALSE(gov.Charge(1, GovernPoint::kSearch));
  EXPECT_EQ(gov.trip_kind(), TripKind::kSteps);
  EXPECT_EQ(gov.trip_point(), GovernPoint::kSearch);
  EXPECT_EQ(gov.ToStatus().code(), StatusCode::kResourceExhausted);
  // Sticky: every later charge fails without changing the trip site.
  EXPECT_FALSE(gov.Charge(1, GovernPoint::kRefine));
  EXPECT_EQ(gov.trip_point(), GovernPoint::kSearch);
}

/// ChargeEach(n) must leave the governor exactly as n Charge(1) calls that
/// stop at the first false: the same accepted count, consumption, trip
/// kind, and injector slow-check count, whatever run lengths interleave.
TEST(ResourceGovernorTest, ChargeEachEqualsSingleCharges) {
  for (uint64_t budget : {0u, 1u, 50u, 1023u, 1024u, 5000u}) {
    for (uint64_t fault_at : {0u, 1u, 3u}) {
      ResourceGovernor each(GovernorLimits{.max_steps = budget});
      ResourceGovernor single(GovernorLimits{.max_steps = budget});
      FaultInjector each_inj;
      FaultInjector single_inj;
      if (fault_at != 0) {
        each_inj.AddRule(GovernPoint::kSearch, fault_at, TripKind::kSteps);
        single_inj.AddRule(GovernPoint::kSearch, fault_at, TripKind::kSteps);
      }
      each.set_fault_injector(&each_inj);
      single.set_fault_injector(&single_inj);
      Rng rng(budget * 7 + fault_at);
      for (int run = 0; run < 60; ++run) {
        uint64_t n = rng.NextBounded(run % 3 == 0 ? 3000 : 40);
        uint64_t accepted = 0;
        while (accepted < n && single.Charge(1, GovernPoint::kSearch)) {
          ++accepted;
        }
        std::string where = "budget=" + std::to_string(budget) +
                            " fault_at=" + std::to_string(fault_at) +
                            " run=" + std::to_string(run);
        ASSERT_EQ(each.ChargeEach(n, GovernPoint::kSearch), accepted) << where;
        ASSERT_EQ(each.steps_used(), single.steps_used()) << where;
        ASSERT_EQ(each.trip_kind(), single.trip_kind()) << where;
      }
      // One more slow check on each side must fire the same injector count.
      EXPECT_EQ(each.CheckNow(GovernPoint::kSearch),
                single.CheckNow(GovernPoint::kSearch));
      EXPECT_EQ(each.trip_kind(), single.trip_kind());
    }
  }
}

TEST(ResourceGovernorTest, DeadlineTrips) {
  ResourceGovernor gov(GovernorLimits{.timeout_ms = 10});
  auto start = std::chrono::steady_clock::now();
  bool ok = true;
  while (ok) {
    ok = gov.CheckNow(GovernPoint::kEval);
    if (std::chrono::steady_clock::now() - start > std::chrono::seconds(5)) {
      FAIL() << "deadline never tripped";
    }
  }
  EXPECT_EQ(gov.trip_kind(), TripKind::kDeadline);
  EXPECT_EQ(gov.ToStatus().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(gov.elapsed_ms(), 10);
  EXPECT_FALSE(gov.DegradableTrip());
  EXPECT_FALSE(gov.ClearDegradableTrip());
}

TEST(ResourceGovernorTest, CancelFromAnotherThread) {
  ResourceGovernor gov;  // Unlimited: only Cancel() can stop it.
  std::thread worker([&gov] {
    while (gov.Charge(1, GovernPoint::kSearch)) {
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  gov.Cancel();
  worker.join();
  EXPECT_EQ(gov.trip_kind(), TripKind::kCancelled);
  EXPECT_EQ(gov.ToStatus().code(), StatusCode::kCancelled);
  EXPECT_FALSE(gov.DegradableTrip());
}

TEST(ResourceGovernorTest, ArmDiscardsPendingCancel) {
  ResourceGovernor gov;
  gov.Cancel();
  gov.Arm(GovernorLimits{});
  EXPECT_TRUE(gov.CheckNow(GovernPoint::kEval));
  EXPECT_FALSE(gov.tripped());
}

TEST(ResourceGovernorTest, DegradableTripClearsAndRefunds) {
  ResourceGovernor gov(GovernorLimits{.max_steps = 10});
  uint64_t charged = 0;
  while (gov.Charge(1, GovernPoint::kRefine)) ++charged;
  EXPECT_EQ(gov.trip_kind(), TripKind::kSteps);
  EXPECT_TRUE(gov.DegradableTrip());
  gov.RefundSteps(charged + 1);
  EXPECT_TRUE(gov.ClearDegradableTrip());
  EXPECT_FALSE(gov.tripped());
  // The refunded budget is spendable again.
  EXPECT_TRUE(gov.Charge(1, GovernPoint::kSearch));
}

TEST(ResourceGovernorTest, MemoryReserveTripsSoftly) {
  ResourceGovernor gov(GovernorLimits{.max_memory_bytes = 1000});
  gov.Reserve(600, GovernPoint::kRefine);
  EXPECT_FALSE(gov.tripped());
  gov.Reserve(600, GovernPoint::kRefine);  // 1200 > 1000.
  EXPECT_EQ(gov.trip_kind(), TripKind::kMemory);
  EXPECT_EQ(gov.trip_point(), GovernPoint::kRefine);
  EXPECT_EQ(gov.peak_memory(), 1200u);
  gov.Release(600);
  EXPECT_EQ(gov.memory_used(), 600u);
  EXPECT_TRUE(gov.tripped());  // Releasing does not un-trip.
  EXPECT_EQ(gov.ToStatus().code(), StatusCode::kResourceExhausted);
}

TEST(ResourceGovernorTest, ScopedReserveReleasesOnExit) {
  ResourceGovernor gov;
  {
    ScopedReserve r(&gov, 512, GovernPoint::kSearch);
    EXPECT_EQ(gov.memory_used(), 512u);
    r.Grow(100);
    EXPECT_EQ(gov.memory_used(), 612u);
  }
  EXPECT_EQ(gov.memory_used(), 0u);
  EXPECT_EQ(gov.peak_memory(), 612u);
}

TEST(ResourceGovernorTest, GovernedAllocatorAccountsContainers) {
  ResourceGovernor gov;
  {
    GovernedAllocator<uint64_t> alloc(&gov, GovernPoint::kRefine);
    std::vector<uint64_t, GovernedAllocator<uint64_t>> v(alloc);
    for (uint64_t i = 0; i < 1000; ++i) v.push_back(i);
    EXPECT_GE(gov.memory_used(), 1000 * sizeof(uint64_t));
  }
  EXPECT_EQ(gov.memory_used(), 0u);
}

TEST(ResourceGovernorTest, InjectedCancelMapsToCancelledStatus) {
  ResourceGovernor gov;
  FaultInjector inj;
  inj.AddRule(GovernPoint::kOther, 1, TripKind::kCancelled);
  gov.set_fault_injector(&inj);
  // Prime the amortization counter so the next single charge slow-checks.
  ASSERT_TRUE(
      gov.Charge(ResourceGovernor::kCheckIntervalSteps - 1, GovernPoint::kOther));
  EXPECT_FALSE(gov.Charge(1, GovernPoint::kOther));
  EXPECT_EQ(gov.trip_kind(), TripKind::kCancelled);
  EXPECT_EQ(gov.ToStatus().code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Pipeline-level trips (search / retrieve / neighborhood / refine).

// Sized so the 4-node pattern's bulk retrieval charge (4 x 200 = 800
// steps) stays below kCheckIntervalSteps (1024): the pending counter
// carries into the next stage, whose charges deterministically land on
// the slow check (and thus the fault injector) a few hundred steps in.
Graph MakeErGraph() {
  Rng rng(4242);
  workload::ErdosRenyiOptions opts;
  opts.num_nodes = 200;
  opts.num_edges = 2000;
  opts.num_labels = 1;
  return workload::MakeErdosRenyi(opts, &rng);
}

algebra::GraphPattern ExtractPattern(const Graph& g) {
  Rng rng(99);
  auto q = workload::ExtractConnectedQuery(g, 4, &rng);
  EXPECT_TRUE(q.ok()) << q.status();
  return algebra::GraphPattern::FromGraph(std::move(q).value());
}

std::set<std::vector<NodeId>> MappingSet(
    const std::vector<algebra::MatchedGraph>& matches) {
  std::set<std::vector<NodeId>> out;
  for (const algebra::MatchedGraph& m : matches) out.insert(m.node_mapping);
  return out;
}

class GovernedPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = MakeErGraph();
    pattern_ = ExtractPattern(graph_);
    match::PipelineOptions baseline;
    baseline.candidate_mode = match::CandidateMode::kLabelOnly;
    baseline.refine_level = 0;
    baseline.metrics = nullptr;
    auto matches = match::MatchPattern(pattern_, graph_, nullptr, baseline);
    ASSERT_TRUE(matches.ok()) << matches.status();
    baseline_ = MappingSet(*matches);
    ASSERT_FALSE(baseline_.empty());  // The extracted occurrence itself.
  }

  match::PipelineOptions GovernedOptions(ResourceGovernor* gov,
                                         obs::MetricsRegistry* reg) {
    match::PipelineOptions options;
    options.candidate_mode = match::CandidateMode::kLabelOnly;
    options.refine_level = 0;
    options.governor = gov;
    options.metrics = reg;
    return options;
  }

  Graph graph_;
  algebra::GraphPattern pattern_{algebra::GraphPattern::FromGraph(Graph())};
  std::set<std::vector<NodeId>> baseline_;
};

TEST_F(GovernedPipelineTest, SearchTripReturnsPartialMatches) {
  ResourceGovernor gov;
  FaultInjector inj;
  inj.AddRule(GovernPoint::kSearch, 1, TripKind::kSteps);
  gov.set_fault_injector(&inj);
  obs::MetricsRegistry reg;
  match::PipelineStats stats;
  auto matches = match::MatchPattern(pattern_, graph_, nullptr,
                                     GovernedOptions(&gov, &reg), &stats);
  ASSERT_TRUE(matches.ok()) << matches.status();
  EXPECT_TRUE(gov.tripped());
  EXPECT_EQ(gov.trip_kind(), TripKind::kSteps);
  EXPECT_EQ(gov.trip_point(), GovernPoint::kSearch);
  EXPECT_TRUE(stats.search.governor_tripped);
  EXPECT_EQ(reg.GetCounter("governor.trip.search")->Value(), 1u);
  // Whatever was found before the trip is a subset of the true answer.
  for (const auto& mapping : MappingSet(*matches)) {
    EXPECT_TRUE(baseline_.count(mapping)) << "governed run invented a match";
  }
}

TEST_F(GovernedPipelineTest, InjectedDeadlineIsPermanent) {
  ResourceGovernor gov;
  FaultInjector inj;
  inj.AddRule(GovernPoint::kSearch, 1, TripKind::kDeadline);
  gov.set_fault_injector(&inj);
  obs::MetricsRegistry reg;
  auto matches = match::MatchPattern(pattern_, graph_, nullptr,
                                     GovernedOptions(&gov, &reg));
  ASSERT_TRUE(matches.ok()) << matches.status();
  EXPECT_EQ(gov.trip_kind(), TripKind::kDeadline);
  EXPECT_EQ(gov.ToStatus().code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(gov.DegradableTrip());
  EXPECT_FALSE(gov.ClearDegradableTrip());
}

TEST_F(GovernedPipelineTest, RetrieveTripYieldsEmptyCandidates) {
  ResourceGovernor gov;
  FaultInjector inj;
  inj.AddRule(GovernPoint::kRetrieve, 1, TripKind::kSteps);
  gov.set_fault_injector(&inj);
  // Prime the amortization counter so retrieval's first per-node charge
  // (|V| = 200 steps, below the 1024 interval on its own) lands on a slow
  // check: the first pattern node trips, so every candidate list is empty.
  ASSERT_TRUE(gov.Charge(ResourceGovernor::kCheckIntervalSteps - 1,
                         GovernPoint::kOther));
  obs::MetricsRegistry reg;
  auto matches = match::MatchPattern(pattern_, graph_, nullptr,
                                     GovernedOptions(&gov, &reg));
  ASSERT_TRUE(matches.ok()) << matches.status();
  EXPECT_TRUE(matches->empty());
  EXPECT_EQ(gov.trip_point(), GovernPoint::kRetrieve);
  EXPECT_EQ(reg.GetCounter("governor.trip.retrieve")->Value(), 1u);
}

TEST_F(GovernedPipelineTest, NeighborhoodTripIsReported) {
  match::LabelIndexOptions iopts;
  iopts.build_neighborhoods = true;
  match::LabelIndex index = match::LabelIndex::Build(graph_, iopts);
  ResourceGovernor gov;
  FaultInjector inj;
  inj.AddRule(GovernPoint::kNeighborhood, 1, TripKind::kSteps);
  gov.set_fault_injector(&inj);
  obs::MetricsRegistry reg;
  match::PipelineOptions options = GovernedOptions(&gov, &reg);
  options.candidate_mode = match::CandidateMode::kNeighborhood;
  auto matches = match::MatchPattern(pattern_, graph_, &index, options);
  ASSERT_TRUE(matches.ok()) << matches.status();
  EXPECT_TRUE(gov.tripped());
  EXPECT_EQ(gov.trip_point(), GovernPoint::kNeighborhood);
  EXPECT_EQ(reg.GetCounter("governor.trip.neighborhood")->Value(), 1u);
}

TEST_F(GovernedPipelineTest, RefineFallbackPreservesTheMatchSet) {
  // Sanity: full refinement without a governor finds the same matches.
  {
    match::PipelineOptions full;
    full.candidate_mode = match::CandidateMode::kLabelOnly;
    full.refine_level = -1;
    full.metrics = nullptr;
    auto matches = match::MatchPattern(pattern_, graph_, nullptr, full);
    ASSERT_TRUE(matches.ok()) << matches.status();
    EXPECT_EQ(MappingSet(*matches), baseline_);
  }
  // Governed run whose refinement budget trips mid-flight: it must fall
  // back to the unrefined candidate sets and still find exactly the same
  // matches — degradation loses pruning, never answers.
  ResourceGovernor gov;
  FaultInjector inj;
  inj.AddRule(GovernPoint::kRefine, 1, TripKind::kSteps);
  gov.set_fault_injector(&inj);
  obs::MetricsRegistry reg;
  match::PipelineOptions options = GovernedOptions(&gov, &reg);
  options.refine_level = -1;
  match::PipelineStats stats;
  auto matches =
      match::MatchPattern(pattern_, graph_, nullptr, options, &stats);
  ASSERT_TRUE(matches.ok()) << matches.status();
  EXPECT_TRUE(stats.refine_degraded);
  EXPECT_TRUE(stats.refine.aborted);
  EXPECT_FALSE(gov.tripped());  // The degradable trip was absorbed.
  ASSERT_EQ(gov.degradations().size(), 1u);
  EXPECT_EQ(reg.GetCounter("governor.degrade.refine")->Value(), 1u);
  EXPECT_EQ(reg.GetCounter("governor.trip.refine")->Value(), 0u);
  EXPECT_EQ(MappingSet(*matches), baseline_);
}

TEST_F(GovernedPipelineTest, MemoryBudgetDegradesRefinement) {
  // A budget smaller than the refinement bitmap: the Reserve trips, the
  // refinement aborts on its first pair, and the pipeline falls back.
  ResourceGovernor gov(GovernorLimits{.max_memory_bytes = 256});
  obs::MetricsRegistry reg;
  match::PipelineOptions options = GovernedOptions(&gov, &reg);
  options.refine_level = -1;
  match::PipelineStats stats;
  auto matches =
      match::MatchPattern(pattern_, graph_, nullptr, options, &stats);
  ASSERT_TRUE(matches.ok()) << matches.status();
  EXPECT_TRUE(stats.refine_degraded);
  // The search may later trip the same memory budget on emitted matches;
  // either way every returned match is a true one.
  for (const auto& mapping : MappingSet(*matches)) {
    EXPECT_TRUE(baseline_.count(mapping));
  }
}

// ---------------------------------------------------------------------------
// Collection-index (gindex) trip.

TEST(GovernedGindexTest, VerifyLoopTripStopsScan) {
  auto graphs = motif::GraphsFromProgramSource(R"(
    graph M1 { node a <label="C">; node b <label="O">; edge (a, b); };
    graph M2 { node a <label="C">; node b <label="O">; edge (a, b); };
    graph M3 { node a <label="C">; node b <label="O">; edge (a, b); };
  )");
  ASSERT_TRUE(graphs.ok()) << graphs.status();
  GraphCollection coll;
  for (Graph& g : *graphs) coll.Add(std::move(g));
  gindex::CollectionIndex index = gindex::CollectionIndex::Build(coll);
  auto p = algebra::GraphPattern::Parse(
      "graph P { node x <label=\"C\">; node y <label=\"O\">; edge (x, y); }");
  ASSERT_TRUE(p.ok()) << p.status();

  ResourceGovernor gov;
  FaultInjector inj;
  inj.AddRule(GovernPoint::kGindex, 1, TripKind::kSteps);
  gov.set_fault_injector(&inj);
  // Prime the amortization counter: the verify loop's first per-member
  // charge lands on a slow check and injects the trip.
  ASSERT_TRUE(gov.Charge(ResourceGovernor::kCheckIntervalSteps - 1,
                         GovernPoint::kOther));
  obs::MetricsRegistry reg;
  match::PipelineOptions options;
  options.governor = &gov;
  options.metrics = &reg;
  auto matches = index.Select(*p, options);
  ASSERT_TRUE(matches.ok()) << matches.status();
  EXPECT_TRUE(matches->empty());  // Tripped before verifying any member.
  EXPECT_EQ(gov.trip_point(), GovernPoint::kGindex);
  EXPECT_EQ(reg.GetCounter("governor.trip.gindex")->Value(), 1u);

  // An ungoverned Select still verifies all three members.
  match::PipelineOptions plain;
  plain.metrics = nullptr;
  auto all = index.Select(*p, plain);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 3u);
}

// ---------------------------------------------------------------------------
// Datalog fixpoint trip.

TEST(GovernedDatalogTest, TripReturnsPartialIdb) {
  datalog::FactDatabase edb;
  for (int i = 0; i < 200; ++i) {
    edb.Add("edge", {Value(int64_t{i}), Value(int64_t{i + 1})});
  }
  datalog::Rule base;
  base.head.predicate = "reach";
  base.head.args = {datalog::Term::Var("X"), datalog::Term::Var("Y")};
  base.body.push_back(base.head);
  base.body[0].predicate = "edge";
  datalog::Rule step;
  step.head.predicate = "reach";
  step.head.args = {datalog::Term::Var("X"), datalog::Term::Var("Z")};
  datalog::Atom reach_xy;
  reach_xy.predicate = "reach";
  reach_xy.args = {datalog::Term::Var("X"), datalog::Term::Var("Y")};
  datalog::Atom edge_yz;
  edge_yz.predicate = "edge";
  edge_yz.args = {datalog::Term::Var("Y"), datalog::Term::Var("Z")};
  step.body = {reach_xy, edge_yz};
  std::vector<datalog::Rule> rules = {base, step};

  auto full = datalog::Evaluate(rules, edb);
  ASSERT_TRUE(full.ok()) << full.status();
  const size_t full_facts = full->NumFacts();
  EXPECT_EQ(full_facts, 201u * 200u / 2u);  // Chain transitive closure.

  ResourceGovernor gov;
  FaultInjector inj;
  inj.AddRule(GovernPoint::kDatalog, 1, TripKind::kSteps);
  gov.set_fault_injector(&inj);
  datalog::EvalOptions options;
  options.governor = &gov;
  datalog::EvalStats stats;
  auto partial = datalog::Evaluate(rules, edb, options, &stats);
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_TRUE(stats.governor_tripped);
  EXPECT_EQ(gov.trip_point(), GovernPoint::kDatalog);
  EXPECT_LT(partial->NumFacts(), full_facts);
}

// ---------------------------------------------------------------------------
// Evaluator end-to-end: limits, partial results, report propagation.

class GovernedEvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto graphs = motif::GraphsFromProgramSource(R"(
      graph G1 <booktitle="SIGMOD"> {
        node v1 <author name="A">;
        node v2 <author name="B">;
      };
      graph G2 <booktitle="SIGMOD"> {
        node v1 <author name="C">;
        node v2 <author name="D">;
        node v3 <author name="A">;
      };
      graph G3 <booktitle="VLDB"> {
        node v1 <author name="E">;
        node v2 <author name="F">;
      };
    )");
    ASSERT_TRUE(graphs.ok()) << graphs.status();
    GraphCollection dblp;
    for (Graph& g : *graphs) dblp.Add(std::move(g));
    docs_.Register("DBLP", std::move(dblp));
  }

  /// A dense single-label ER graph registered as doc "ER": the 6-clique
  /// query below has (essentially) no answers but an enormous search
  /// space, the paper's pathological selection case.
  void RegisterHeavyDoc() {
    Rng rng(20260806);
    workload::ErdosRenyiOptions opts;
    opts.num_nodes = 1000;
    opts.num_edges = 100000;
    opts.num_labels = 1;
    GraphCollection er;
    er.Add(workload::MakeErdosRenyi(opts, &rng));
    docs_.Register("ER", std::move(er));
  }

  static std::string CliqueProgram() {
    std::string s = "graph P {\n";
    for (int i = 1; i <= 6; ++i) {
      s += "  node u" + std::to_string(i) + " <label=\"L0\">;\n";
    }
    for (int i = 1; i <= 6; ++i) {
      for (int j = i + 1; j <= 6; ++j) {
        s += "  edge (u" + std::to_string(i) + ", u" + std::to_string(j) +
             ");\n";
      }
    }
    s += "};\n";
    s += "for P exhaustive in doc(\"ER\") return graph { node P.u1; };\n";
    return s;
  }

  static constexpr char kCoauthorProgram[] = R"(
    graph P { node v1 <author>; node v2 <author>; };
    C := graph {};
    for P exhaustive in doc("DBLP") let C := graph {
      graph C;
      node P.v1, P.v2;
      edge e1 (P.v1, P.v2);
      unify P.v1, C.v1 where P.v1.name == C.v1.name;
      unify P.v2, C.v2 where P.v2.name == C.v2.name;
    };
  )";

  exec::DocumentRegistry docs_;
};

TEST_F(GovernedEvaluatorTest, UnlimitedRunReportsConsumptionOnly) {
  exec::Evaluator ev(&docs_);
  auto result = ev.RunSource(kCoauthorProgram);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->limits.tripped);
  EXPECT_FALSE(result->limits.Partial());
  EXPECT_TRUE(result->limits.degradations.empty());
  EXPECT_GT(result->limits.steps_used, 0u);
}

TEST_F(GovernedEvaluatorTest, GenerousLimitsDoNotChangeResults) {
  exec::Evaluator unlimited(&docs_);
  auto r1 = unlimited.RunSource(kCoauthorProgram);
  ASSERT_TRUE(r1.ok()) << r1.status();

  exec::Evaluator governed(&docs_);
  governed.set_limits(GovernorLimits{.timeout_ms = 10000,
                                     .max_steps = 100000000,
                                     .max_memory_bytes = 1ull << 30});
  auto r2 = governed.RunSource(kCoauthorProgram);
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_FALSE(r2->limits.tripped);

  const Graph* c1 = unlimited.Variable("C");
  const Graph* c2 = governed.Variable("C");
  ASSERT_NE(c1, nullptr);
  ASSERT_NE(c2, nullptr);
  EXPECT_EQ(c1->NumNodes(), c2->NumNodes());
  EXPECT_EQ(c1->NumEdges(), c2->NumEdges());
}

TEST_F(GovernedEvaluatorTest, StepLimitTripsWithResourceExhausted) {
  exec::Evaluator ev(&docs_);
  ev.set_limits(GovernorLimits{.max_steps = 10});
  auto result = ev.RunSource(kCoauthorProgram);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->limits.tripped);
  EXPECT_EQ(result->limits.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(result->limits.kind, TripKind::kSteps);
  EXPECT_TRUE(result->limits.Partial());
  EXPECT_FALSE(result->limits.message.empty());
  EXPECT_FALSE(result->limits.ToString().empty());
}

TEST_F(GovernedEvaluatorTest, EvalInjectorStopsBetweenStatements) {
  exec::Evaluator ev(&docs_);
  FaultInjector inj;
  inj.AddRule(GovernPoint::kEval, 2, TripKind::kSteps);
  ev.governor()->set_fault_injector(&inj);
  auto result = ev.RunSource("A := graph {}; B := graph {}; C := graph {};");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->limits.tripped);
  EXPECT_EQ(result->limits.point, GovernPoint::kEval);
  EXPECT_EQ(result->limits.code, StatusCode::kResourceExhausted);
  // Statement 1 ran; the trip fired before statement 2.
  EXPECT_NE(ev.Variable("A"), nullptr);
  EXPECT_EQ(ev.Variable("B"), nullptr);
  EXPECT_EQ(ev.metrics()->GetCounter("governor.trip.eval")->Value(), 1u);
}

TEST_F(GovernedEvaluatorTest, DeadlineReturnsPromptlyWithPartialResults) {
  RegisterHeavyDoc();
  exec::Evaluator ev(&docs_);
  ev.set_limits(GovernorLimits{.timeout_ms = 50});
  auto start = std::chrono::steady_clock::now();
  auto result = ev.RunSource(CliqueProgram());
  auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->limits.tripped);
  EXPECT_EQ(result->limits.code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(result->limits.kind, TripKind::kDeadline);
  EXPECT_GE(result->limits.elapsed_ms, 45);
  // ~2x the deadline in Release; the generous bound absorbs sanitizer and
  // loaded-CI slowdowns while still catching a non-cooperative search.
  EXPECT_LT(wall_ms, 2500);
}

TEST_F(GovernedEvaluatorTest, CancelFromAnotherThreadStopsTheQuery) {
  RegisterHeavyDoc();
  exec::Evaluator ev(&docs_);
  std::optional<Result<exec::QueryResult>> result;
  std::thread worker(
      [&] { result = ev.RunSource(CliqueProgram()); });
  // The pathological search runs for seconds unlimited; cancel mid-way.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ev.governor()->Cancel();
  worker.join();
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->ok()) << result->status();
  EXPECT_TRUE((*result)->limits.tripped);
  EXPECT_EQ((*result)->limits.code, StatusCode::kCancelled);
  EXPECT_EQ((*result)->limits.kind, TripKind::kCancelled);
}

TEST_F(GovernedEvaluatorTest, TruncationPropagatesIntoLimits) {
  exec::Evaluator ev(&docs_);
  ev.mutable_match_options()->match.max_matches = 1;
  auto result = ev.RunSource(R"(
    graph P { node v1 <author>; node v2 <author>; };
    for P exhaustive in doc("DBLP") return graph { node P.v1; };
  )");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->limits.truncated);
  EXPECT_TRUE(result->limits.Partial());
  EXPECT_FALSE(result->limits.tripped);
}

}  // namespace
}  // namespace graphql
