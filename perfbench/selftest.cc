// Self-tests of the benchmark itself: the tail-percentile rule, the
// oracle's rejection of a corrupted response, span nesting, and per
// workload a determinism check of its request stream and a short smoke run
// (untraced and traced).
#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "traced.h"
#include "workload/dblp.h"

namespace gqlbench {

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("  %s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void TestTailRule() {
  bool ok = true;
  for (size_t n = 1; n <= 5000; ++n) {
    int pct = TailPercentile(n);
    if (pct == 0) {
      ok &= n < 20;  // Even p50 leaves fewer than 10 beyond it.
      continue;
    }
    if (n >= 1000) ok &= pct == 99;
    // Count, on real data, the samples strictly above the percentile.
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
    double at = Percentile(&v, pct);
    size_t beyond = 0;
    for (double x : v) beyond += x > at ? 1 : 0;
    ok &= beyond >= 10 && beyond == SamplesBeyond(n, pct);
  }
  Expect(ok, "tail percentile leaves >= 10 samples beyond it (n = 1..5000)");
}

void TestOracle() {
  Rng rng(7);
  workload::DblpOptions o;
  o.num_papers = 6;
  o.num_authors = 5;
  auto doc = std::make_shared<const GraphCollection>(
      workload::MakeDblpCollection(o, &rng));
  Oracle oracle({{"D", doc}});
  const std::string q =
      "for graph Q { node a <author name=\"A1\">; } in doc(\"D\") return Q;";
  Expected want = oracle.Run(q);
  server::Response good;
  good.body = want.body;
  Expect(!want.body.empty() && Matches(want, good),
        "oracle accepts the correct response");
  server::Response corrupted = good;
  size_t at = corrupted.body.find("A1");
  if (at != std::string::npos) corrupted.body[at + 1] = '2';
  Expect(at != std::string::npos && !Matches(want, corrupted),
        "oracle rejects a corrupted body");
  server::Response truncated = good;
  truncated.body.resize(truncated.body.size() / 2);
  Expect(!Matches(want, truncated), "oracle rejects a truncated body");
  server::Response wrong_code = good;
  wrong_code.code = StatusCode::kInternal;
  Expect(!Matches(want, wrong_code), "oracle rejects a wrong status code");
  // A governed trip is compared by status code only.
  Expected trip;
  trip.code = StatusCode::kResourceExhausted;
  trip.body = "partial";
  server::Response partial;
  partial.code = StatusCode::kResourceExhausted;
  partial.body = "some other partial result";
  Expect(Matches(trip, partial), "governed trips compare by status code");
  // The same graphs in another order are reported, not rejected.
  auto many = std::make_shared<const GraphCollection>(
      workload::MakeDblpCollection(o, &rng));
  Oracle all({{"D", many}});
  Expected every = all.Run(
      "for graph Q { node a <author>; } in doc(\"D\") return Q;");
  std::string head;
  std::vector<std::string> graphs;
  SplitBody(every.body, &head, &graphs);
  server::Response swapped;
  swapped.body = every.body;
  if (graphs.size() >= 2 && graphs[0] != graphs[1]) {
    size_t first = swapped.body.find(graphs[0]);
    swapped.body.replace(first, graphs[0].size() + 1 + graphs[1].size(),
                         graphs[1] + "\n" + graphs[0]);
  }
  Expect(graphs.size() >= 2 && Check(every, swapped) == Verdict::kReordered,
         "reordered graphs are reported as reordered");
  server::Response dropped;
  dropped.body = every.body;
  if (!graphs.empty()) {
    dropped.body.erase(dropped.body.find(graphs[0]), graphs[0].size() + 1);
  }
  Expect(Check(every, dropped) == Verdict::kWrong,
         "a missing graph is a wrong answer");
}

void TestSpans() {
  SpanLog log;
  int root = log.Begin("request", -1, 0);
  int a = log.Begin("server.decode", root, 0);
  log.End(a);
  int run = log.Begin("exec.run", root, 0);
  log.End(run);
  // Children larger than their parent are clipped into it.
  log.AddChild("exec.front_end", run, 1e9);
  log.AddChild("exec.exec", run, 1e9);
  log.End(root);
  Expect(log.CheckNesting().empty(), "recorded spans nest");
  std::vector<double> self = log.SelfTimes();
  bool nonneg = true;
  for (double s : self) nonneg &= s >= -1e-6;
  Expect(nonneg, "no self time is negative");
  SpanLog bad;
  bad.AddRaw({"request", 0, 10, -1, 0, 0});
  bad.AddRaw({"server.decode", 5, 20, 0, 0, 5});
  Expect(!bad.CheckNesting().empty(), "a child escaping its parent is caught");
  Expect(LayerOf("match.search") == "match" && LayerOf("request").empty(),
        "span names map to layers");
}

void SmokeRuns(const Args& base) {
  for (const std::string& name : WorkloadNames()) {
    Args args = base;
    args.workload = name;
    args.workdir = base.workdir + "/selftest-" + name;
    auto w = MakeWorkload(name, 11, args.workdir);
    if (!w.ok()) {
      Expect(false, "smoke " + name + ": " + w.status().ToString());
      continue;
    }
    // The same seed must give the same requests: nothing in a workload
    // may depend on how the engine under test performs.
    auto again = MakeWorkload(name, 11, args.workdir + "/again");
    bool same = again.ok();
    for (int c = 0; same && c < w.value()->connections; ++c) {
      for (uint64_t i = 0; same && i < 200; ++i) {
        const Op a = w.value()->next_op(c, i);
        const Op b = again.value()->next_op(c, i);
        same = a.key == b.key && a.requests.size() == b.requests.size();
        for (size_t r = 0; same && r < a.requests.size(); ++r) {
          same = server::EncodeRequest(a.requests[r]) ==
                 server::EncodeRequest(b.requests[r]);
        }
      }
    }
    Expect(same, "smoke " + name + ": the seed alone fixes the requests");
    auto run = RunServer(args, w.value().get(), 1, 1.0);
    Expect(run.ok() && run->wrong == 0 && run->attempted > 0,
          "smoke " + name + " untraced" +
              (run.ok() ? " (" + std::to_string(run->attempted) + " ops)"
                        : ": " + run.status().ToString()));
    if (run.ok()) {
      std::vector<Metric> metrics;
      args.trace_file = args.workdir + "/trace.json";
      Status st = RunTraced(args, w.value().get(), *run, 1.0, &metrics);
      Expect(st.ok() && !metrics.empty(),
             "smoke " + name + " traced" +
                 (st.ok() ? "" : ": " + st.ToString()));
      std::error_code ec;
      Expect(std::filesystem::file_size(args.trace_file, ec) > 0 && !ec,
            "smoke " + name + " wrote a Chrome trace");
    }
    std::error_code ec;
    std::filesystem::remove_all(args.workdir, ec);
  }
}

}  // namespace

int RunSelfTests(const Args& args) {
  std::printf("gqlbench self-tests\n");
  TestTailRule();
  TestOracle();
  TestSpans();
  SmokeRuns(args);
  std::printf("%s (%d failures)\n", failures == 0 ? "OK" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace gqlbench
