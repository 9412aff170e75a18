// The four workloads: seeded documents, request streams and expected
// answers. See perfbench/README.md for why each exists.
#include <algorithm>
#include <filesystem>
#include <functional>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "bench.h"
#include "io/serialize.h"
#include "server/session.h"
#include "server/store.h"
#include "storage/engine.h"
#include "workload/dblp.h"
#include "workload/erdos_renyi.h"
#include "workload/protein_network.h"
#include "workload/queries.h"

namespace gqlbench {

namespace {

namespace fs = std::filesystem;

/// SplitMix64 finalizer: independent RNG streams from (seed, a, b).
uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t z = seed ^ (a * 0x9E3779B97F4A7C15ull) ^ (b * 0xC2B2AE3D27D4EB4Full);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

server::Request Query(std::string text) {
  server::Request r;
  r.op = server::Op::kQuery;
  r.a = std::move(text);
  return r;
}

server::Request Prepare(std::string name, std::string text) {
  server::Request r;
  r.op = server::Op::kPrepare;
  r.a = std::move(name);
  r.b = std::move(text);
  return r;
}

server::Request Execute(std::string name, std::vector<Value> params) {
  server::Request r;
  r.op = server::Op::kExecute;
  r.a = std::move(name);
  r.params = std::move(params);
  return r;
}

server::Request Set(std::string spec) {
  server::Request r;
  r.op = server::Op::kSet;
  r.a = std::move(spec);
  return r;
}

/// Writes `c` as a v2 binary file gqld --loads, and returns the collection
/// read back from it — exactly what gqld will serve.
Result<std::shared_ptr<const GraphCollection>> SaveAndReload(
    const GraphCollection& c, const std::string& path) {
  GQL_RETURN_IF_ERROR(io::SaveCollection(c, path));
  GQL_ASSIGN_OR_RETURN(GraphCollection back, io::LoadCollection(path));
  return std::make_shared<const GraphCollection>(std::move(back));
}

GraphCollection Single(std::string name, Graph g) {
  GraphCollection c(std::move(name));
  c.Add(std::move(g));
  return c;
}

/// The paper's low-hit class (Section 5.1): fewer than this many answers.
constexpr size_t kLowHitThreshold = 100;

/// Low-hit exhaustive queries of `doc`: for each size in [lo, hi], the
/// first `per_size` extracted patterns whose oracle answer has fewer than
/// kLowHitThreshold graphs. Fills `texts`, `patterns` and the expected
/// answers (keys "q<i>").
Status LowHitQueries(const Graph& data, const std::string& doc, size_t lo,
                     size_t hi, size_t per_size, Rng* rng, Oracle* oracle,
                     Workload* w, std::vector<std::string>* texts) {
  for (size_t size = lo; size <= hi; ++size) {
    size_t kept = 0;
    for (size_t tries = 0; kept < per_size; ++tries) {
      if (tries == 20 * per_size) {
        return Status::Internal("too few low-hit patterns of size " +
                                std::to_string(size) + " in " + doc);
      }
      GQL_ASSIGN_OR_RETURN(Graph q,
                           workload::ExtractConnectedQuery(data, size, rng));
      std::string text = "for graph Q { " + PatternText(q) +
                         "} exhaustive in doc(\"" + doc + "\") return Q;";
      Expected want = oracle->Run(text);
      if (want.code != StatusCode::kOk ||
          want.graphs.size() >= kLowHitThreshold) {
        continue;
      }
      w->expected["q" + std::to_string(texts->size())] = std::move(want);
      texts->push_back(std::move(text));
      w->patterns.push_back(std::move(q));
      ++kept;
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------- serve_small

/// Distinct ad-hoc literals: 4x the 3,914 plans of 2,143 bytes
/// (CachedPlan::EstimateBytes) that the default 8 MB plan cache held when
/// this benchmark was written. Fixed, so a change to the plan cache or its
/// entry size is measured on the same request stream.
constexpr size_t kAdhocDomain = 15656;

Result<std::unique_ptr<Workload>> MakeServeSmall(uint64_t seed,
                                                 const std::string& dir) {
  auto w = std::make_unique<Workload>();
  w->name = "serve_small";
  w->connections = 2;
  Rng rng(Mix(seed, 1, 0));
  workload::DblpOptions o;
  o.num_papers = 8;
  o.num_authors = 40;
  GraphCollection doc = workload::MakeDblpCollection(o, &rng);
  doc.set_name("S");
  GQL_ASSIGN_OR_RETURN(auto served, SaveAndReload(doc, dir + "/S.gqlb"));
  w->preload.push_back({"S", dir + "/S.gqlb"});
  w->docs["S"] = served;

  const std::string tmpl =
      "for graph Q { node a <author>; } in doc(\"S\") where a.name == $1 "
      "return Q;";
  w->prelude.push_back(Prepare("by_author", tmpl));
  auto adhoc = [](size_t rank) {
    return "for graph Q { node a <author name=\"A" + std::to_string(rank) +
           "\">; } in doc(\"S\") return Q;";
  };

  Oracle oracle(w->docs);
  // How many ad-hoc plans the default cache holds in this build, for the
  // provenance stamp only: the literal domain is a fixed constant so that
  // every build replays the same requests.
  size_t entry_bytes = 0;
  size_t capacity_bytes = 0;
  {
    exec::DocumentRegistry reg;
    reg.RegisterShared("S", served);
    exec::Evaluator probe(&reg);
    probe.set_plan_cache_capacity(8u << 20);
    probe.recorder()->set_enabled(false);
    GQL_RETURN_IF_ERROR(probe.RunSource(adhoc(0)).status());
    if (probe.plan_cache() == nullptr || probe.plan_cache()->bytes() == 0) {
      return Status::Internal("plan cache did not admit the probe plan");
    }
    entry_bytes = probe.plan_cache()->bytes();
    capacity_bytes = probe.plan_cache()->max_bytes();
  }
  const size_t domain = kAdhocDomain;
  constexpr size_t kPreparedDomain = 48;
  for (size_t k = 0; k < kPreparedDomain; ++k) {
    GQL_ASSIGN_OR_RETURN(
        std::string text,
        server::SubstituteParams(tmpl, {Value("A" + std::to_string(k))}));
    w->expected["p" + std::to_string(k)] = oracle.Run(text);
  }
  for (size_t r = 0; r < domain; ++r) {
    w->expected["a" + std::to_string(r)] = oracle.Run(adhoc(r));
  }
  auto zipf = std::make_shared<ZipfSampler>(domain, 1.0);
  w->next_op = [seed, zipf, adhoc](int conn, uint64_t i) {
    Rng r(Mix(seed, 100 + conn, i));
    Op op;
    if (r.NextBool(0.5)) {
      size_t k = r.NextBounded(kPreparedDomain);
      op.key = "p" + std::to_string(k);
      op.requests.push_back(
          Execute("by_author", {Value("A" + std::to_string(k))}));
    } else {
      size_t rank = zipf->Sample(&r);
      op.key = "a" + std::to_string(rank);
      op.requests.push_back(Query(adhoc(rank)));
    }
    return op;
  };
  w->op_class = [](const Op& op) {
    return op.key[0] == 'p' ? std::string("prepared") : std::string("adhoc");
  };
  w->knobs = {{"doc", "DBLP-like, 8 graphs, 40 authors"},
              {"adhoc_literal_domain", std::to_string(domain)},
              {"adhoc_zipf_alpha", "1.0"},
              {"plan_entry_bytes", std::to_string(entry_bytes)},
              {"plan_cache_bytes", std::to_string(capacity_bytes)},
              {"domain_over_cache_entries",
               std::to_string(static_cast<double>(domain) /
                              static_cast<double>(capacity_bytes /
                                                  entry_bytes))},
              {"prepared_frac", "0.5"}};
  return w;
}

// ---------------------------------------------------------------- match_prune

Result<std::unique_ptr<Workload>> MakeMatchPrune(uint64_t seed,
                                                 const std::string& dir) {
  auto w = std::make_unique<Workload>();
  w->name = "match_prune";
  w->connections = 2;
  Rng rng(Mix(seed, 2, 0));
  workload::ErdosRenyiOptions o;  // 10k nodes, 50k edges, 100 Zipf labels.
  o.num_nodes = 10000;
  o.num_edges = 50000;
  o.num_labels = 100;
  GQL_ASSIGN_OR_RETURN(auto served,
                       SaveAndReload(Single("ER", workload::MakeErdosRenyi(
                                                      o, &rng)),
                                     dir + "/ER.gqlb"));
  w->preload.push_back({"ER", dir + "/ER.gqlb"});
  w->docs["ER"] = served;
  w->pattern_doc = "ER";

  Oracle oracle(w->docs);
  auto texts = std::make_shared<std::vector<std::string>>();
  GQL_RETURN_IF_ERROR(LowHitQueries((*served)[0], "ER", 4, 12, 60, &rng,
                                    &oracle, w.get(), texts.get()));
  w->next_op = [seed, texts](int conn, uint64_t i) {
    Rng r(Mix(seed, 200 + conn, i));
    size_t k = r.NextBounded(texts->size());
    Op op;
    op.key = "q" + std::to_string(k);
    op.requests.push_back(Query((*texts)[k]));
    return op;
  };
  w->op_class = [](const Op&) { return std::string("pattern"); };
  w->knobs = {{"graph",
               "Erdos-Renyi 10000 nodes, 50000 edges, 100 Zipf labels"},
              {"queries", std::to_string(texts->size()) +
                              " extracted connected patterns, 60 each of 4..12 "
                              "nodes, exhaustive, low-hit (< 100 answers)"}};
  return w;
}

// ---------------------------------------------------------------- match_search

constexpr size_t kSearchCandidatesPerSize = 3000;
constexpr size_t kSearchQueriesPerSize = 80;

/// The benchmark's own model of the paper's search (Section 4.4), used
/// only to size match_search's queries. Its cost depends on the seed
/// alone, so every build of the engine replays the same query set at the
/// same seed, and a change to the engine's search never changes which
/// queries it is measured on.
class ReferenceSearch {
 public:
  explicit ReferenceSearch(const Graph& data) : adj_(data.NumNodes()) {
    for (size_t v = 0; v < data.NumNodes(); ++v) {
      const NodeId id = static_cast<NodeId>(v);
      for (const Graph::Adj& a : data.neighbors(id)) adj_[v].push_back(a.node);
      std::sort(adj_[v].begin(), adj_[v].end());
      adj_[v].erase(std::unique(adj_[v].begin(), adj_[v].end()),
                    adj_[v].end());
      const size_t label =
          label_ids_.emplace(std::string(data.Label(id)), label_ids_.size())
              .first->second;
      by_label_.resize(label_ids_.size());
      by_label_[label].push_back(id);
      std::optional<Value> t = data.node(id).attrs.Get("tier");
      tier_.push_back(t.has_value() && t->is_int() ? t->AsInt() : 0);
    }
  }

  /// Candidates tried by a nested-loop search of `pattern` whose node u
  /// must match its label and, when u < constrained, tier[u]. Nodes are
  /// joined in ascending order of candidate count (ties: a node linked to
  /// the joined ones first, then the lower id), the paper's greedy order
  /// with a constant reduction factor; each partial embedding tries every
  /// unused candidate of the next node. Counting stops just past `cap`.
  uint64_t Steps(const Graph& pattern, const std::vector<int>& tier,
                 size_t constrained, uint64_t cap) const {
    const size_t k = pattern.NumNodes();
    std::vector<std::vector<NodeId>> cands(k);
    for (size_t u = 0; u < k; ++u) {
      const size_t label = label_ids_.at(
          std::string(pattern.Label(static_cast<NodeId>(u))));
      for (NodeId v : by_label_[label]) {
        if (u >= constrained || tier_[v] == tier[u]) cands[u].push_back(v);
      }
    }
    auto linked = [&](size_t u, size_t x) {
      return pattern.HasEdgeBetween(static_cast<NodeId>(u),
                                    static_cast<NodeId>(x));
    };
    std::vector<size_t> order;
    std::vector<char> placed(k, 0);
    while (order.size() < k) {
      size_t best = k;
      bool best_linked = false;
      for (size_t u = 0; u < k; ++u) {
        if (placed[u]) continue;
        bool link = false;
        for (size_t x : order) link = link || linked(u, x);
        if (best == k || cands[u].size() < cands[best].size() ||
            (cands[u].size() == cands[best].size() && link && !best_linked)) {
          best = u;
          best_linked = link;
        }
      }
      placed[best] = 1;
      order.push_back(best);
    }
    // back[i]: earlier positions linked to position i.
    std::vector<std::vector<size_t>> back(k);
    for (size_t i = 1; i < k; ++i) {
      for (size_t j = 0; j < i; ++j) {
        if (linked(order[i], order[j])) back[i].push_back(j);
      }
    }
    std::vector<NodeId> at(k);
    uint64_t steps = 0;
    std::function<bool(size_t)> extend = [&](size_t i) {
      if (i == k) return true;
      const std::vector<NodeId>& phi = cands[order[i]];
      auto fits = [&](NodeId v) {
        return std::binary_search(phi.begin(), phi.end(), v);
      };
      size_t used = 0;
      for (size_t j = 0; j < i; ++j) used += fits(at[j]) ? 1 : 0;
      steps += phi.size() - used;
      if (steps > cap) return false;
      // Only the candidates that pass the edge checks recurse; walk them
      // through an anchor's adjacency when the node has a joined neighbour.
      auto visit = [&](NodeId v) {
        for (size_t j = 0; j < i; ++j) {
          if (at[j] == v) return true;
        }
        for (size_t j : back[i]) {
          if (!std::binary_search(adj_[at[j]].begin(), adj_[at[j]].end(), v)) {
            return true;
          }
        }
        at[i] = v;
        return extend(i + 1);
      };
      if (back[i].empty()) {
        for (NodeId v : phi) {
          if (!visit(v)) return false;
        }
      } else {
        for (NodeId v : adj_[at[back[i][0]]]) {
          if (fits(v) && !visit(v)) return false;
        }
      }
      return true;
    };
    extend(0);
    return steps;
  }

 private:
  std::vector<std::vector<NodeId>> adj_;
  std::unordered_map<std::string, size_t> label_ids_;
  std::vector<std::vector<NodeId>> by_label_;  ///< Ascending node ids.
  std::vector<int64_t> tier_;
};

Result<std::unique_ptr<Workload>> MakeMatchSearch(uint64_t seed,
                                                  const std::string& dir) {
  auto w = std::make_unique<Workload>();
  w->name = "match_search";
  w->connections = 1;
  w->threads = kBenchCpus;
  Rng rng(Mix(seed, 3, 0));
  workload::ErdosRenyiOptions o;
  o.num_nodes = 20000;
  o.num_edges = 80000;
  o.num_labels = 6;
  Graph g = workload::MakeErdosRenyi(o, &rng);
  for (size_t v = 0; v < g.NumNodes(); ++v) {
    AttrTuple& attrs = g.node(static_cast<NodeId>(v)).attrs;
    attrs.Set("score", Value(static_cast<int64_t>(rng.NextBounded(100))));
    attrs.Set("tier", Value(static_cast<int64_t>(1 + rng.NextBounded(3))));
  }
  // Candidate patterns are drawn before the graph moves into its doc;
  // the served copy is the one read back from the file.
  std::vector<Graph> candidates;
  for (size_t size = 4; size <= 6; ++size) {
    for (size_t k = 0; k < kSearchCandidatesPerSize; ++k) {
      GQL_ASSIGN_OR_RETURN(Graph q,
                           workload::ExtractConnectedQuery(g, size, &rng));
      candidates.push_back(std::move(q));
    }
  }
  GQL_ASSIGN_OR_RETURN(auto served,
                       SaveAndReload(Single("ERS", std::move(g)),
                                     dir + "/ERS.gqlb"));
  w->preload.push_back({"ERS", dir + "/ERS.gqlb"});
  w->docs["ERS"] = served;
  w->limits.max_steps = kSearchStepBudget;
  w->prelude.push_back(Set("threads " + std::to_string(w->threads)));
  w->prelude.push_back(Set("max_steps " + std::to_string(kSearchStepBudget)));

  // Keep the first kSearchQueriesPerSize candidates of each size whose
  // reference search tries [kSearchMinSteps, kSearchMaxSteps] candidates,
  // so every seed's query set costs about the same. The engine only
  // answers the kept queries (the serial oracle, under the session's own
  // step budget); a query that trips the budget there fails the run.
  const ReferenceSearch reference((*served)[0]);
  Oracle oracle(w->docs);
  oracle.set_limits(w->limits);
  auto texts = std::make_shared<std::vector<std::string>>();
  std::vector<Graph> queries;
  size_t screened = 0;
  double reference_steps = 0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const size_t size = candidates[i].NumNodes();
    size_t kept = 0;
    for (const Graph& q : queries) kept += q.NumNodes() == size ? 1 : 0;
    if (kept == kSearchQueriesPerSize) continue;
    // Per-node tier predicates (pushed into retrieval) cut the search
    // space by about 3 per constrained node. Start with every node
    // constrained and drop constraints from the last node backwards until
    // the reference cost reaches the window; a candidate that overshoots
    // it is skipped. The cross-node score predicate is evaluated per full
    // match inside the search, so the search explores every embedding
    // while the response stays small.
    Rng tiers(Mix(seed, 3, 1 + i));
    std::vector<int> tier(size);
    for (int& t : tier) t = 1 + static_cast<int>(tiers.NextBounded(3));
    for (size_t m = size + 1; m-- > 0;) {
      ++screened;
      const uint64_t steps =
          reference.Steps(candidates[i], tier, m, kSearchMaxSteps);
      if (steps > kSearchMaxSteps) break;  // Past the window.
      if (steps < kSearchMinSteps) continue;
      std::string where;
      for (size_t v = 0; v < m; ++v) {
        where += "n" + std::to_string(v) + ".tier == " +
                 std::to_string(tier[v]) + " & ";
      }
      std::string text = "for graph Q { " + PatternText(candidates[i]) +
                         "} exhaustive in doc(\"ERS\") where " + where +
                         "n0.score + n1.score < 10 return Q;";
      Expected want = oracle.Run(text);
      if (want.code != StatusCode::kOk) {
        return Status::Internal(
            "match_search: query " + std::to_string(texts->size()) +
            " exceeds max_steps " + std::to_string(kSearchStepBudget) +
            " on the serial path: " + text);
      }
      reference_steps += static_cast<double>(steps);
      w->expected["q" + std::to_string(texts->size())] = std::move(want);
      texts->push_back(std::move(text));
      queries.push_back(candidates[i]);
      break;
    }
  }
  if (texts->size() != 3 * kSearchQueriesPerSize) {
    return Status::Internal("match_search: only " +
                            std::to_string(texts->size()) +
                            " candidate patterns fell in the cost window");
  }
  // Query costs are heavy-tailed, so the one connection cycles through a
  // seeded permutation of the set instead of drawing each request: every
  // run repeats the whole set about equally often, and its mean latency
  // follows the set, not the luck of the draw.
  auto order = std::make_shared<std::vector<size_t>>(texts->size());
  for (size_t k = 0; k < order->size(); ++k) (*order)[k] = k;
  Rng shuffle(Mix(seed, 300, 0));
  shuffle.Shuffle(order.get());
  w->next_op = [texts, order](int, uint64_t i) {
    const size_t k = (*order)[i % order->size()];
    Op op;
    op.key = "q" + std::to_string(k);
    op.requests.push_back(Query((*texts)[k]));
    return op;
  };
  w->op_class = [](const Op&) { return std::string("pattern"); };
  w->patterns = std::move(queries);
  w->pattern_doc = "ERS";
  w->knobs = {{"graph", "Erdos-Renyi 20000 nodes, 80000 edges, 6 Zipf labels, "
                        "score/tier attributes"},
              {"queries", std::to_string(texts->size()) +
                              " extracted connected patterns, " +
                              std::to_string(kSearchQueriesPerSize) +
                              " each of 4..6 nodes, exhaustive, tier "
                              "predicates on a prefix of the nodes, residual "
                              "score predicate, reference search steps in [" +
                              std::to_string(kSearchMinSteps) + ", " +
                              std::to_string(kSearchMaxSteps) + "]"},
              {"candidates_screened", std::to_string(screened)},
              {"mean_reference_steps",
               std::to_string(reference_steps /
                              static_cast<double>(texts->size()))},
              {"max_steps", std::to_string(kSearchStepBudget)}};
  return w;
}

// ------------------------------------------------------------- write_durable

constexpr size_t kWriteDocsPerConn = 8;

std::string WriteDocName(int conn, size_t k) {
  return "w" + std::to_string(conn) + "_" + std::to_string(k);
}

/// One new paper graph, as the collection text a load_text carries.
std::string PaperText(uint64_t seed, int conn, uint64_t i) {
  Rng r(Mix(seed, 500 + conn, i));
  workload::DblpOptions o;
  o.num_papers = 1;
  o.num_authors = 300;
  return io::WriteCollectionText(workload::MakeDblpCollection(o, &r));
}

Result<std::unique_ptr<Workload>> MakeWriteDurable(uint64_t seed,
                                                   const std::string& dir) {
  auto w = std::make_unique<Workload>();
  w->name = "write_durable";
  w->connections = 2;
  Rng rng(Mix(seed, 4, 0));
  workload::DblpOptions o;
  o.num_papers = 1000;
  o.num_authors = 300;
  GraphCollection dblp = workload::MakeDblpCollection(o, &rng);
  Graph ppi = workload::MakeProteinNetwork({}, &rng);
  w->docs["DBLP"] = std::make_shared<const GraphCollection>(dblp);
  w->docs["PPI"] = std::make_shared<const GraphCollection>(
      Single("PPI", std::move(ppi)));

  // The recovery directory: a checkpoint of both docs plus a WAL tail of
  // write-doc publishes, prepared through the engine itself (untimed).
  w->data_dir = dir + "/prepared";
  {
    storage::DurableStore::Options dopts;
    dopts.dir = w->data_dir;
    GQL_ASSIGN_OR_RETURN(auto durable, storage::DurableStore::Open(dopts));
    server::GraphStore store;
    store.set_durable_store(durable.get());
    store.Bootstrap(durable->recovered_docs(), durable->recovered_version());
    GQL_RETURN_IF_ERROR(store.Publish("DBLP", *w->docs["DBLP"]).status());
    GQL_RETURN_IF_ERROR(store.Publish("PPI", *w->docs["PPI"]).status());
    GQL_RETURN_IF_ERROR(store.CheckpointNow());
    for (int conn = 0; conn < 2; ++conn) {
      for (size_t k = 0; k < kWriteDocsPerConn; ++k) {
        GQL_ASSIGN_OR_RETURN(GraphCollection c,
                             io::ReadCollectionText(PaperText(seed, conn, k)));
        std::string name = WriteDocName(conn, k);
        c.set_name(name);
        auto shared = std::make_shared<const GraphCollection>(c);
        GQL_RETURN_IF_ERROR(store.Publish(name, std::move(c)).status());
        w->docs[name] = shared;
      }
    }
  }

  const std::string tmpl =
      "for graph Q { node a <author>; node b <author>; } exhaustive in "
      "doc(\"DBLP\") where a.name == $1 return Q;";
  w->prelude.push_back(Prepare("coauthors", tmpl));
  Oracle oracle(w->docs);
  for (size_t k = 0; k < o.num_authors; ++k) {
    GQL_ASSIGN_OR_RETURN(
        std::string text,
        server::SubstituteParams(tmpl, {Value("A" + std::to_string(k))}));
    w->expected["c" + std::to_string(k)] = oracle.Run(text);
  }
  auto texts = std::make_shared<std::vector<std::string>>();
  w->pattern_doc = "PPI";
  GQL_RETURN_IF_ERROR(LowHitQueries((*w->docs["PPI"])[0], "PPI", 3, 4, 120,
                                    &rng, &oracle, w.get(), texts.get()));
  const size_t authors = o.num_authors;
  w->next_op = [seed, texts, authors](int conn, uint64_t i) {
    Rng r(Mix(seed, 400 + conn, i));
    Op op;
    if (r.NextBool(0.1)) {
      op.write = true;
      op.doc = WriteDocName(conn, i % kWriteDocsPerConn);
      server::Request load;
      load.op = server::Op::kLoadText;
      load.a = op.doc;
      load.b = PaperText(seed, conn, kWriteDocsPerConn + i);
      server::Request publish;
      publish.op = server::Op::kPublish;
      publish.a = op.doc;
      publish.b = op.doc;
      op.requests = {std::move(load), std::move(publish)};
    } else if (r.NextBool(1.0 / 9)) {
      size_t k = r.NextBounded(authors);
      op.key = "c" + std::to_string(k);
      op.requests.push_back(
          Execute("coauthors", {Value("A" + std::to_string(k))}));
    } else {
      size_t k = r.NextBounded(texts->size());
      op.key = "q" + std::to_string(k);
      op.requests.push_back(Query((*texts)[k]));
    }
    return op;
  };
  w->op_class = [](const Op& op) {
    if (op.write) return std::string("write");
    return op.key[0] == 'c' ? std::string("dblp") : std::string("ppi");
  };
  w->knobs = {{"docs", "DBLP-like 1000 graphs, 300 authors; protein network "
                       "3112 nodes"},
              {"mix", "writes 0.1, DBLP co-author scans 0.1, protein "
                      "patterns 0.8"},
              {"protein_queries", "240 extracted connected patterns, 120 "
                                  "each of 3..4 nodes, low-hit (< 100 "
                                  "answers)"},
              {"write_docs", std::to_string(2 * kWriteDocsPerConn)},
              {"recovery_dir", "checkpoint + 16-record WAL tail"}};
  return w;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "serve_small", "match_prune", "match_search", "write_durable"};
  return kNames;
}

Result<std::unique_ptr<Workload>> MakeWorkload(const std::string& name,
                                               uint64_t seed,
                                               const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::Internal("cannot create " + dir + ": " + ec.message());
  if (name == "serve_small") return MakeServeSmall(seed, dir);
  if (name == "match_prune") return MakeMatchPrune(seed, dir);
  if (name == "match_search") return MakeMatchSearch(seed, dir);
  if (name == "write_durable") return MakeWriteDurable(seed, dir);
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

}  // namespace gqlbench
