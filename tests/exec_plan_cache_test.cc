// Plan-cache acceptance tests: repeated query texts must skip the
// parse/sema/pattern-compile front-end entirely (proven through both the
// exec.frontend.* counters and the absence of parse/sema spans in the
// profile trace), produce results identical to a cold run, be invalidated
// by every session-state mutation (graph declarations, assignments, `let`
// accumulators), and expire with the documents they name — a plan hits
// across republished documents and misses once one is gone. A unit
// section exercises PlanKey normalization and the byte-bounded LRU
// directly.

#include "exec/plan_cache.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>

#include "exec/evaluator.h"
#include "graph/snapshot.h"
#include "io/serialize.h"
#include "lang/parser.h"
#include "motif/deriver.h"
#include "server/session.h"  // SubstituteParams: the prepared-site producer.

namespace graphql::exec {
namespace {

constexpr char kPureQuery[] =
    R"(for graph Q { node v <author>; } exhaustive in doc("DBLP") return Q;)";

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    docs_.Register("DBLP", Collection(R"(
      graph G1 <booktitle="SIGMOD"> {
        node v1 <author name="A">;
        node v2 <author name="B">;
      };
      graph G2 <booktitle="VLDB"> {
        node v1 <author name="C">;
      };
    )"));
  }

  static GraphCollection Collection(const char* source) {
    auto graphs = motif::GraphsFromProgramSource(source);
    EXPECT_TRUE(graphs.ok()) << graphs.status();
    GraphCollection out;
    if (graphs.ok()) {
      for (Graph& g : *graphs) out.Add(std::move(g));
    }
    return out;
  }

  static std::string Render(const QueryResult& result) {
    std::ostringstream out;
    out << io::WriteCollectionText(result.returned);
    return out.str();
  }

  static uint64_t Counter(Evaluator* ev, const char* name) {
    return ev->metrics()->GetCounter(name)->Value();
  }

  DocumentRegistry docs_;
};

TEST_F(PlanCacheTest, RepeatHitsAndResultsAreIdentical) {
  Evaluator ev(&docs_);
  ASSERT_TRUE(ev.plan_cache_enabled());

  auto cold = ev.RunSource(kPureQuery);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold->plan_source, "miss");
  EXPECT_EQ(Counter(&ev, "plan_cache.miss"), 1u);
  EXPECT_EQ(Counter(&ev, "plan_cache.hit"), 0u);
  EXPECT_EQ(ev.plan_cache()->entries(), 1u);

  auto warm = ev.RunSource(kPureQuery);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(warm->plan_source, "hit");
  EXPECT_EQ(Counter(&ev, "plan_cache.hit"), 1u);
  EXPECT_EQ(Counter(&ev, "plan_cache.miss"), 1u);

  EXPECT_EQ(Render(*cold), Render(*warm));
  EXPECT_FALSE(Render(*warm).empty());
  EXPECT_EQ(cold->diagnostics.size(), warm->diagnostics.size());
}

TEST_F(PlanCacheTest, HitSkipsParseAndSema) {
  Evaluator ev(&docs_);
  ev.set_profiling(true);

  auto cold = ev.RunSource(kPureQuery);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(Counter(&ev, "exec.frontend.parses"), 1u);
  EXPECT_EQ(Counter(&ev, "exec.frontend.semas"), 1u);
  // Cold runs replay their measured front-end as completed trace spans.
  EXPECT_NE(cold->profile_json.find("\"name\":\"parse\""), std::string::npos)
      << cold->profile_json;
  EXPECT_NE(cold->profile_json.find("\"name\":\"sema\""), std::string::npos);
  EXPECT_NE(cold->profile_json.find("\"plan\":\"cold\""), std::string::npos);

  auto warm = ev.RunSource(kPureQuery);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(warm->plan_source, "hit");
  // The front-end never ran: counters unchanged, spans absent.
  EXPECT_EQ(Counter(&ev, "exec.frontend.parses"), 1u);
  EXPECT_EQ(Counter(&ev, "exec.frontend.semas"), 1u);
  EXPECT_EQ(warm->profile_json.find("\"name\":\"parse\""), std::string::npos)
      << warm->profile_json;
  EXPECT_EQ(warm->profile_json.find("\"name\":\"sema\""), std::string::npos);
  EXPECT_NE(warm->profile_json.find("\"plan\":\"cached\""),
            std::string::npos);
}

TEST_F(PlanCacheTest, DifferentLiteralsGetDistinctEntries) {
  // The server's prepared statements substitute $N parameters into the
  // text, so repeated executes with the same parameters must hit while
  // different parameters compile (and cache) their own plan.
  Evaluator ev(&docs_);
  const char* sigmod =
      R"(for graph Q { node v <author>; } exhaustive in doc("DBLP")
         where Q.booktitle == "SIGMOD" return Q;)";
  const char* vldb =
      R"(for graph Q { node v <author>; } exhaustive in doc("DBLP")
         where Q.booktitle == "VLDB" return Q;)";

  auto first = ev.RunSource(sigmod);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->plan_source, "miss");
  auto other = ev.RunSource(vldb);
  ASSERT_TRUE(other.ok()) << other.status();
  EXPECT_EQ(other->plan_source, "miss");
  EXPECT_EQ(ev.plan_cache()->entries(), 2u);
  EXPECT_NE(Render(*first), Render(*other)) << "vacuous differential";

  auto again = ev.RunSource(sigmod);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->plan_source, "hit");
  EXPECT_EQ(Render(*first), Render(*again));
}

TEST_F(PlanCacheTest, SessionMutationsInvalidate) {
  Evaluator ev(&docs_);
  ASSERT_TRUE(ev.RunSource(kPureQuery).ok());

  // A graph declaration changes the motif registry the cached plans were
  // compiled against.
  ASSERT_TRUE(ev.RunSource("graph P { node v <author>; };").ok());
  auto after_decl = ev.RunSource(kPureQuery);
  ASSERT_TRUE(after_decl.ok()) << after_decl.status();
  EXPECT_EQ(after_decl->plan_source, "miss") << "stale plan served";

  // An assignment binds a session variable.
  ASSERT_TRUE(ev.RunSource("X := graph { node a; };").ok());
  auto after_assign = ev.RunSource(kPureQuery);
  ASSERT_TRUE(after_assign.ok());
  EXPECT_EQ(after_assign->plan_source, "miss");

  // A republished document is not a session mutation: the plan compiled
  // after the assignment keeps hitting, and reads the new contents.
  docs_.Register("DBLP", Collection(R"(
    graph G3 <booktitle="ICDE"> { node v1 <author name="D">; };
  )"));
  auto after_store = ev.RunSource(kPureQuery);
  ASSERT_TRUE(after_store.ok()) << after_store.status();
  EXPECT_EQ(after_store->plan_source, "hit");
  EXPECT_EQ(after_store->returned.size(), 1u);

  // And a clean repeat hits again.
  auto warm = ev.RunSource(kPureQuery);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->plan_source, "hit");
}

TEST_F(PlanCacheTest, PlanHitsAfterItsOwnOrAnotherDocumentIsRepublished) {
  docs_.Register("OTHER", Collection("graph O { node x <paper>; };"));
  Evaluator ev(&docs_);
  auto cold = ev.RunSource(kPureQuery);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold->plan_source, "miss");

  // Another document republished.
  docs_.Register("OTHER", Collection("graph O2 { node y <paper>; };"));
  auto other = ev.RunSource(kPureQuery);
  ASSERT_TRUE(other.ok()) << other.status();
  EXPECT_EQ(other->plan_source, "hit");
  EXPECT_EQ(Render(*other), Render(*cold));

  // Its own document republished: still a hit, over the new contents,
  // which a fresh evaluator's cold run confirms.
  docs_.Register("DBLP", Collection(R"(
    graph G1 <booktitle="SIGMOD"> { node v1 <author name="Z">; };
  )"));
  auto own = ev.RunSource(kPureQuery);
  ASSERT_TRUE(own.ok()) << own.status();
  EXPECT_EQ(own->plan_source, "hit");
  Evaluator fresh(&docs_);
  auto reference = fresh.RunSource(kPureQuery);
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_EQ(reference->plan_source, "miss");
  EXPECT_EQ(Render(*own), Render(*reference));
  EXPECT_NE(Render(*own), Render(*cold)) << "vacuous republish";
  EXPECT_EQ(Counter(&ev, "plan_cache.hit"), 2u);
  EXPECT_EQ(Counter(&ev, "plan_cache.miss"), 1u);
}

TEST_F(PlanCacheTest, PlanMissesAfterItsDocumentIsDropped) {
  Evaluator ev(&docs_);
  ASSERT_TRUE(ev.RunSource(kPureQuery).ok());
  ASSERT_EQ(ev.plan_cache()->entries(), 1u);

  // Dropping the document (a registry rebuilt without it) must not serve
  // the plan, whose analysis saw the document: the cold run reports the
  // missing document, as it would without a cache.
  DocumentRegistry saved = docs_;
  docs_.Clear();
  auto dropped = ev.RunSource(kPureQuery);
  ASSERT_FALSE(dropped.ok());
  EXPECT_NE(dropped.status().message().find("not registered"),
            std::string::npos)
      << dropped.status();
  EXPECT_EQ(Counter(&ev, "plan_cache.hit"), 0u);
  EXPECT_EQ(Counter(&ev, "plan_cache.miss"), 2u);

  // The prepared path checks its documents the same way.
  const std::string tmpl =
      R"(for graph Q { node v <author>; } exhaustive in doc("DBLP")
         where Q.booktitle == $1 return Q;)";
  docs_ = saved;
  std::vector<PreparedParam> sites;
  auto text = server::SubstituteParams(tmpl, {Value("SIGMOD")}, &sites);
  ASSERT_TRUE(text.ok());
  ASSERT_TRUE(ev.RunPrepared(tmpl, *text, sites, {Value("SIGMOD")}).ok());
  docs_.Clear();
  EXPECT_FALSE(ev.RunPrepared(tmpl, *text, sites, {Value("SIGMOD")}).ok());
  EXPECT_EQ(Counter(&ev, "plan_cache.hit"), 0u);

  // Registered again, the document's plans are valid again.
  docs_ = saved;
  auto back = ev.RunSource(kPureQuery);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->plan_source, "hit");
}

TEST_F(PlanCacheTest, PlanOverUnregisteredDocumentIsNotCached) {
  Evaluator ev(&docs_);
  const char* query =
      R"(for graph Q { node v <author>; } exhaustive in doc("LATER")
         return Q;)";
  auto missing = ev.RunSource(query);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(ev.plan_cache()->entries(), 0u);
  EXPECT_EQ(Counter(&ev, "plan_cache.uncacheable"), 1u);

  // Once the document exists the query compiles afresh — no plan whose
  // analysis reported the document missing is served — and is cached.
  docs_.Register("LATER", Collection("graph L { node v <author>; };"));
  auto present = ev.RunSource(query);
  ASSERT_TRUE(present.ok()) << present.status();
  EXPECT_EQ(present->plan_source, "miss");
  EXPECT_TRUE(present->diagnostics.empty());
  EXPECT_EQ(present->returned.size(), 1u);
  EXPECT_EQ(ev.plan_cache()->entries(), 1u);
}

TEST_F(PlanCacheTest, ImpureProgramsAreUncacheable) {
  Evaluator ev(&docs_);
  const char* impure = R"(
    C := graph {};
    for graph Q { node v <author>; } exhaustive in doc("DBLP")
      let C := graph { graph C; node Q.v; };
  )";
  auto first = ev.RunSource(impure);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->plan_source, "uncacheable");
  auto second = ev.RunSource(impure);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->plan_source, "uncacheable");
  EXPECT_EQ(Counter(&ev, "plan_cache.uncacheable"), 2u);
  EXPECT_EQ(Counter(&ev, "plan_cache.hit"), 0u);
  EXPECT_EQ(ev.plan_cache()->entries(), 0u);
}

TEST_F(PlanCacheTest, ParseErrorsBypassTheCacheAndReproduce) {
  Evaluator ev(&docs_);
  auto first = ev.RunSource("for garbage !!");
  EXPECT_FALSE(first.ok());
  auto second = ev.RunSource("for garbage !!");
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(first.status().message(), second.status().message());
  EXPECT_EQ(Counter(&ev, "plan_cache.hit"), 0u);
}

TEST_F(PlanCacheTest, CapacityKnobDisablesAndEvicts) {
  Evaluator ev(&docs_);
  ASSERT_TRUE(ev.RunSource(kPureQuery).ok());
  EXPECT_EQ(ev.plan_cache()->entries(), 1u);

  // 0 disables the cache and drops its entries.
  ev.set_plan_cache_capacity(0);
  EXPECT_FALSE(ev.plan_cache_enabled());
  auto off = ev.RunSource(kPureQuery);
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->plan_source, "off");

  // A tiny budget (a few KB — roughly one compiled plan) forces the LRU
  // to evict older entries (observable through the counter), and the
  // evicted text misses again.
  ev.set_plan_cache_capacity(4096);
  ASSERT_TRUE(ev.plan_cache_enabled());
  const char* queries[] = {
      R"(for graph Q { node v <author>; } in doc("DBLP") return Q;)",
      R"(for graph Q { node v <author>; node w <author>; }
         in doc("DBLP") return Q;)",
      R"(for graph Q { node v; } in doc("DBLP") return Q;)",
  };
  for (const char* q : queries) ASSERT_TRUE(ev.RunSource(q).ok());
  EXPECT_GT(Counter(&ev, "plan_cache.evict"), 0u);
  EXPECT_LE(ev.plan_cache()->entries(), 2u);
  auto evicted = ev.RunSource(queries[0]);
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(evicted->plan_source, "miss");
}

TEST_F(PlanCacheTest, EnvironmentKnob) {
  ::setenv("GQL_PLAN_CACHE", "off", 1);
  {
    Evaluator ev(&docs_);
    EXPECT_FALSE(ev.plan_cache_enabled());
  }
  ::setenv("GQL_PLAN_CACHE", "2", 1);
  {
    Evaluator ev(&docs_);
    ASSERT_TRUE(ev.plan_cache_enabled());
    EXPECT_EQ(ev.plan_cache()->max_bytes(), size_t{2} << 20);
  }
  ::unsetenv("GQL_PLAN_CACHE");
  {
    Evaluator ev(&docs_);
    ASSERT_TRUE(ev.plan_cache_enabled());
    EXPECT_EQ(ev.plan_cache()->max_bytes(), size_t{8} << 20);
  }
}

TEST_F(PlanCacheTest, ExplainAnalyzeShowsProvenance) {
  Evaluator ev(&docs_);
  auto cold = ev.ExplainAnalyzeSource(kPureQuery);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_NE(cold->find("-- plan cache --"), std::string::npos) << *cold;
  EXPECT_NE(cold->find("plan: miss"), std::string::npos) << *cold;
  auto warm = ev.ExplainAnalyzeSource(kPureQuery);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_NE(warm->find("plan: hit"), std::string::npos) << *warm;
}

// ---- Unit tests for the key and the LRU mechanics ----

TEST(PlanKeyTest, MasksLiteralsIntoShapeAndSignature) {
  PlanKey a, b, c;
  ASSERT_TRUE(PlanKey::From(R"(for P in doc("D") where P.x == 1 return P;)",
                            &a));
  ASSERT_TRUE(PlanKey::From(R"(for P in doc("D") where P.x == 2 return P;)",
                            &b));
  ASSERT_TRUE(PlanKey::From(R"(for Q in doc("D") where Q.x == 1 return Q;)",
                            &c));
  // Same text modulo literals: same shape, different parameter signature.
  EXPECT_EQ(a.shape, b.shape);
  EXPECT_NE(a.literals, b.literals);
  EXPECT_NE(a.hash, b.hash);
  // Different identifiers: different shape.
  EXPECT_NE(a.shape, c.shape);
  // Deterministic.
  PlanKey a2;
  ASSERT_TRUE(PlanKey::From(R"(for P in doc("D") where P.x == 1 return P;)",
                            &a2));
  EXPECT_EQ(a.hash, a2.hash);
  EXPECT_EQ(a.shape, a2.shape);
  EXPECT_EQ(a.literals, a2.literals);
}

TEST(PlanKeyTest, UnlexableTextIsRejected) {
  PlanKey key;
  EXPECT_FALSE(PlanKey::From("\"unterminated", &key));
}

std::shared_ptr<const CachedPlan> MakePlan(size_t bytes) {
  auto plan = std::make_shared<CachedPlan>();
  plan->bytes = bytes;
  return plan;
}

PlanKey MakeKey(const std::string& shape) {
  PlanKey key;
  key.shape = shape;
  key.literals = "";
  key.hash = std::hash<std::string>{}(shape);
  return key;
}

TEST(PlanCacheLruTest, LookupHonorsEpochAndExactStrings) {
  PlanCache cache(1 << 20);
  PlanKey key = MakeKey("for ? return ?");
  cache.Insert(key, /*epoch=*/1, MakePlan(100));
  EXPECT_NE(cache.Lookup(key, 1), nullptr);
  // Stale epoch: erased, not served.
  EXPECT_EQ(cache.Lookup(key, 2), nullptr);
  EXPECT_EQ(cache.entries(), 0u);
  // Hash collision with different strings loses.
  cache.Insert(key, 1, MakePlan(100));
  PlanKey collide = MakeKey("something else");
  collide.hash = key.hash;
  EXPECT_EQ(cache.Lookup(collide, 1), nullptr);
}

TEST(PlanCacheLruTest, EvictsLeastRecentlyUsedUnderByteBound) {
  PlanCache cache(250);
  PlanKey a = MakeKey("a"), b = MakeKey("b"), c = MakeKey("c");
  EXPECT_EQ(cache.Insert(a, 1, MakePlan(100)), 0u);
  EXPECT_EQ(cache.Insert(b, 1, MakePlan(100)), 0u);
  // Touch `a` so `b` is the LRU victim.
  EXPECT_NE(cache.Lookup(a, 1), nullptr);
  EXPECT_EQ(cache.Insert(c, 1, MakePlan(100)), 1u);
  EXPECT_NE(cache.Lookup(a, 1), nullptr);
  EXPECT_EQ(cache.Lookup(b, 1), nullptr);
  EXPECT_NE(cache.Lookup(c, 1), nullptr);
  EXPECT_LE(cache.bytes(), 250u);

  // Oversized plans are not admitted.
  PlanKey big = MakeKey("big");
  EXPECT_EQ(cache.Insert(big, 1, MakePlan(10'000)), 0u);
  EXPECT_EQ(cache.Lookup(big, 1), nullptr);
  // A reinsert replaces in place.
  EXPECT_EQ(cache.Insert(c, 1, MakePlan(120)), 0u);
  EXPECT_EQ(cache.entries(), 2u);
}

// An indexed retrieve compiles each alternative's pattern snapshot and
// caches it on the cached plan's pattern graph, so an entry's estimate
// must cover those snapshots.
TEST(PlanCacheEstimateTest, CoversPatternSnapshots) {
  auto held = [](const Graph& g) {
    return sizeof(GraphSnapshot) + g.snapshot()->bytes();
  };
  // The alternatives' share of an entry's estimate, and the bytes their
  // compiled snapshots hold. One key for every query, so the key text
  // does not enter the comparison.
  const PlanKey key = MakeKey("for ? return ?");
  struct Share {
    size_t estimate = 0;
    size_t snapshots = 0;
  };
  auto share = [&](const std::string& q) {
    Share out;
    auto program = lang::Parser::ParseProgram(q);
    EXPECT_TRUE(program.ok()) << program.status();
    if (!program.ok()) return out;
    auto alts = algebra::GraphPattern::CreateAll(
        *program->statements[0].flwr.pattern);
    EXPECT_TRUE(alts.ok()) << alts.status();
    if (!alts.ok()) return out;
    CachedPlan plan;
    const size_t bare = CachedPlan::EstimateBytes(key, plan);
    plan.alternatives.push_back(std::move(*alts));
    out.estimate = CachedPlan::EstimateBytes(key, plan) - bare;
    for (const algebra::GraphPattern& alt : plan.alternatives[0]) {
      EXPECT_GE(CachedPlan::EstimateSnapshotBytes(alt.graph()),
                held(alt.graph()))
          << q;
      out.snapshots += held(alt.graph());
    }
    EXPECT_GE(out.estimate, out.snapshots) << q;
    return out;
  };
  const Share short_name = share(
      R"(for graph Q { node a <author name="A12">; } in doc("S") return Q;)");
  const Share long_name =
      share("for graph Q { node a <author name=\"" + std::string(200, 'x') +
            "\">; } in doc(\"S\") return Q;");
  share(R"(for graph Q {
             node u0 <label="L0">; node u1 <label="L1">; node u2 <label="L2">;
             node u3 <label="L3">; node u4 <label="L4">; node u5 <label="L5">;
             edge (u0, u1) <w=1>; edge (u1, u2); edge (u2, u3) <w=2>;
             edge (u3, u4); edge (u4, u5); edge (u5, u0); edge (u0, u3);
           } exhaustive in doc("S") return Q;)");
  // Same shape: the snapshot's string payload is the only difference, and
  // the estimate grows by at least as much.
  ASSERT_GT(long_name.snapshots, short_name.snapshots);
  EXPECT_GE(long_name.estimate - short_name.estimate,
            long_name.snapshots - short_name.snapshots);

  // Directed, with parallel edges, a self-loop and edge attributes.
  Graph g("P", /*directed=*/true);
  for (int i = 0; i < 8; ++i) {
    AttrTuple attrs("t");
    attrs.Set("label", Value("L" + std::to_string(i % 3)));
    g.AddNode("", std::move(attrs));
  }
  for (NodeId i = 0; i < 8; ++i) {
    AttrTuple attrs;
    attrs.Set("w", Value(static_cast<int64_t>(i)));
    g.AddEdge(i, (i + 1) % 8, "", std::move(attrs));
    g.AddEdge(i, (i + 1) % 8);
  }
  g.AddEdge(3, 3);
  EXPECT_GE(CachedPlan::EstimateSnapshotBytes(g), held(g));
}

// ---- Prepared statements: parameter slots ----
//
// Unlike plain RunSource — where each literal value compiles its own plan
// (DifferentLiteralsGetDistinctEntries above) — all executions of one
// prepared template must share a single entry, with the bound parameters
// patched into the cached plan's literal nodes per execution.

/// Substitutes `params` into `tmpl` exactly as the server does and runs
/// the result through the prepared path.
Result<QueryResult> RunPreparedText(Evaluator* ev, const std::string& tmpl,
                                    std::vector<Value> params) {
  std::vector<PreparedParam> sites;
  Result<std::string> substituted =
      server::SubstituteParams(tmpl, params, &sites);
  if (!substituted.ok()) return substituted.status();
  return ev->RunPrepared(tmpl, *substituted, sites, params);
}

TEST_F(PlanCacheTest, PreparedExecutionsShareOneEntryAcrossValues) {
  Evaluator ev(&docs_);
  const std::string tmpl =
      R"(for graph Q { node v <author>; } exhaustive in doc("DBLP")
         where Q.booktitle == $1 return Q;)";

  auto sigmod = RunPreparedText(&ev, tmpl, {Value("SIGMOD")});
  ASSERT_TRUE(sigmod.ok()) << sigmod.status();
  EXPECT_EQ(sigmod->plan_source, "miss");
  EXPECT_EQ(ev.plan_cache()->entries(), 1u);
  EXPECT_EQ(sigmod->returned.size(), 2u);  // G1's two author nodes.

  // Rebinding $1 must hit the SAME entry yet produce VLDB's results.
  auto vldb = RunPreparedText(&ev, tmpl, {Value("VLDB")});
  ASSERT_TRUE(vldb.ok()) << vldb.status();
  EXPECT_EQ(vldb->plan_source, "hit");
  EXPECT_EQ(Counter(&ev, "plan_cache.hit"), 1u);
  EXPECT_EQ(ev.plan_cache()->entries(), 1u);
  EXPECT_EQ(vldb->returned.size(), 1u);  // G2's single author node.
  EXPECT_NE(Render(*sigmod), Render(*vldb)) << "stale parameter value";

  // And rebinding back reproduces the first execution bit-for-bit.
  auto again = RunPreparedText(&ev, tmpl, {Value("SIGMOD")});
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->plan_source, "hit");
  EXPECT_EQ(Counter(&ev, "plan_cache.hit"), 2u);
  EXPECT_EQ(Render(*sigmod), Render(*again));
}

TEST_F(PlanCacheTest, PreparedHitSkipsTheFrontEnd) {
  Evaluator ev(&docs_);
  const std::string tmpl =
      R"(for graph Q { node v <author>; } exhaustive in doc("DBLP")
         where Q.booktitle == $1 return Q;)";
  ASSERT_TRUE(RunPreparedText(&ev, tmpl, {Value("SIGMOD")}).ok());
  EXPECT_EQ(Counter(&ev, "exec.frontend.parses"), 1u);
  EXPECT_EQ(Counter(&ev, "exec.frontend.semas"), 1u);
  ASSERT_TRUE(RunPreparedText(&ev, tmpl, {Value("VLDB")}).ok());
  // Different value, zero front-end work.
  EXPECT_EQ(Counter(&ev, "exec.frontend.parses"), 1u);
  EXPECT_EQ(Counter(&ev, "exec.frontend.semas"), 1u);
}

TEST_F(PlanCacheTest, PreparedRebindFromEmptyToMatchingValues) {
  // The dangerous direction for cached value-dependent analysis: the
  // first execution matches nothing; the rebind must still match (a
  // cached unsatisfiability verdict would wrongly prune it to empty).
  Evaluator ev(&docs_);
  const std::string tmpl =
      R"(for graph Q { node v <author>; } exhaustive in doc("DBLP")
         where Q.booktitle == $1 return Q;)";
  auto none = RunPreparedText(&ev, tmpl, {Value("NO-SUCH-VENUE")});
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_EQ(none->returned.size(), 0u);
  auto some = RunPreparedText(&ev, tmpl, {Value("SIGMOD")});
  ASSERT_TRUE(some.ok()) << some.status();
  EXPECT_EQ(some->plan_source, "hit");
  EXPECT_EQ(some->returned.size(), 2u);
}

TEST_F(PlanCacheTest, PreparedParamInTemplateIsPatched) {
  // Return templates are instantiated from the AST every run, so a
  // parameter in a template tuple is patchable too.
  Evaluator ev(&docs_);
  const std::string tmpl =
      R"(for graph Q { node v <author>; } exhaustive in doc("DBLP")
         where Q.booktitle == "SIGMOD"
         return graph { node w <venue name=$1>; };)";
  auto first = RunPreparedText(&ev, tmpl, {Value("aaa")});
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(first->returned.size(), 2u);
  EXPECT_NE(Render(*first).find("aaa"), std::string::npos);

  auto second = RunPreparedText(&ev, tmpl, {Value("bbb")});
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->plan_source, "hit");
  EXPECT_NE(Render(*second).find("bbb"), std::string::npos)
      << "template still carries the first execution's value";
  EXPECT_EQ(Render(*second).find("aaa"), std::string::npos);
}

TEST_F(PlanCacheTest, PreparedParamInPatternTupleFallsBack) {
  // A parameter inside a pattern tuple literal is baked into the compiled
  // pattern's attribute requirements — it cannot be patched afterwards,
  // so such executions must take the per-value path (and still be
  // correct for every value).
  Evaluator ev(&docs_);
  const std::string tmpl =
      R"(for graph Q { node v <author name=$1>; } exhaustive in doc("DBLP")
         return Q;)";
  auto a = RunPreparedText(&ev, tmpl, {Value("A")});
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_EQ(a->returned.size(), 1u);
  EXPECT_GE(Counter(&ev, "plan_cache.prepared_fallback"), 1u);

  auto c = RunPreparedText(&ev, tmpl, {Value("C")});
  ASSERT_TRUE(c.ok()) << c.status();
  EXPECT_EQ(c->returned.size(), 1u);
  EXPECT_NE(Render(*a), Render(*c)) << "stale baked pattern value";
  EXPECT_EQ(Counter(&ev, "plan_cache.prepared_fallback"), 2u);

  // The fallback runs still cache per-value (RunSource keying): repeating
  // a value hits that per-value entry.
  auto a2 = RunPreparedText(&ev, tmpl, {Value("A")});
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(a2->plan_source, "hit");
  EXPECT_EQ(Render(*a), Render(*a2));
}

TEST_F(PlanCacheTest, PreparedTypeChangeGetsItsOwnEntry) {
  // Same template, same slot, different parameter TYPE: the cached sema
  // ran against the first type, so a rebind to another type compiles its
  // own entry rather than patching the shared one.
  Evaluator ev(&docs_);
  const std::string tmpl =
      R"(for graph Q { node v <author>; } exhaustive in doc("DBLP")
         where Q.booktitle == $1 return Q;)";
  ASSERT_TRUE(RunPreparedText(&ev, tmpl, {Value("SIGMOD")}).ok());
  EXPECT_EQ(ev.plan_cache()->entries(), 1u);
  auto as_int = RunPreparedText(&ev, tmpl, {Value(int64_t{7})});
  ASSERT_TRUE(as_int.ok()) << as_int.status();
  EXPECT_EQ(as_int->plan_source, "miss");
  EXPECT_EQ(as_int->returned.size(), 0u);
  EXPECT_EQ(ev.plan_cache()->entries(), 2u);
}

}  // namespace
}  // namespace graphql::exec
