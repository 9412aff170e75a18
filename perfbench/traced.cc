// The traced pass: replays a workload's seeded request stream in this
// process, calling each layer's public entry point in the order gqld
// calls it, with one span per call. Inner layers that are reachable only
// through an outer call (the match stages inside Evaluator::RunSource, the
// WAL append and checkpoint inside GraphStore::Publish) become child spans
// sized from the outer call's public results (QueryResult,
// StatementActuals) or from timing the inner public function on the same
// inputs in isolation; a child never extends past its parent, so no self
// time is negative.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <numeric>
#include <sstream>

#include "bench.h"
#include "io/serialize.h"
#include "io/snapshot_v3.h"
#include "lang/parser.h"
#include "match/label_index.h"
#include "match/pipeline.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "sema/analyzer.h"
#include "server/admission.h"
#include "server/session.h"
#include "server/store.h"
#include "storage/engine.h"
#include "traced.h"

namespace gqlbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- spans

int SpanLog::Begin(const std::string& name, int parent, uint64_t request) {
  const double now = Now();
  spans_.push_back({name, now, -1, parent, request, now});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int id) { spans_[static_cast<size_t>(id)].end_us = Now(); }

int SpanLog::AddChild(const std::string& name, int parent, double dur_us) {
  Span& p = spans_[static_cast<size_t>(parent)];
  const double start = std::max(p.start_us, p.cursor_us);
  const double end = std::min(p.end_us, start + std::max(0.0, dur_us));
  p.cursor_us = end;
  const uint64_t request = p.request;
  spans_.push_back({name, start, end, parent, request, start});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::Now() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
      .count();
}

std::vector<double> SpanLog::SelfTimes() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_us - spans_[i].start_us;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -=
          spans_[i].end_us - spans_[i].start_us;
    }
  }
  return self;
}

std::string SpanLog::CheckNesting() const {
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_us < s.start_us) {
      return "span " + s.name + " ends before it starts";
    }
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    if (static_cast<size_t>(s.parent) >= i) return "parent after child";
    if (s.start_us < p.start_us || s.end_us > p.end_us) {
      return "span " + s.name + " escapes its parent " + p.name;
    }
    if (s.request != p.request) return "span " + s.name + " changes request";
  }
  std::vector<double> self = SelfTimes();
  for (size_t i = 0; i < self.size(); ++i) {
    if (self[i] < -1e-6) return "negative self time in " + spans_[i].name;
  }
  return "";
}

std::string LayerOf(const std::string& span_name) {
  size_t dot = span_name.find('.');
  return dot == std::string::npos ? std::string() : span_name.substr(0, dot);
}

Status SpanLog::WriteChromeTrace(const std::string& path,
                                 size_t max_requests) const {
  obs::Tracer tracer(true);
  tracer.set_max_nodes(spans_.size() + 1);
  // Synthetic children are appended after later siblings, so rebuild each
  // tree depth-first from explicit child lists.
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::function<void(size_t)> emit = [&](size_t i) {
    const Span& s = spans_[i];
    obs::TraceNode* n =
        tracer.BeginSpan(s.name, static_cast<int64_t>(s.start_us));
    if (n == nullptr) return;
    n->duration_us = static_cast<int64_t>(s.end_us) -
                     static_cast<int64_t>(s.start_us);
    n->SetAttr("request", static_cast<int64_t>(s.request));
    for (size_t c : children[i]) emit(c);
    tracer.EndSpan(n);
  };
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0 && spans_[i].request < max_requests) emit(i);
  }
  std::string events;
  obs::AppendChromeTraceEvents(tracer, {}, &events);
  std::string error;
  if (!obs::WriteChromeTraceFile(path, events, &error)) {
    return Status::Internal(error);
  }
  return Status::OK();
}

// ---------------------------------------------------------------- replay

namespace {

double Us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0 : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

/// A fresh copy of `c` with no compiled snapshots (v2 round trip).
Result<GraphCollection> FreshCopy(const GraphCollection& c) {
  std::stringstream buf;
  GQL_RETURN_IF_ERROR(io::WriteCollectionBinary(c, &buf));
  return io::ReadCollectionBinary(&buf);
}

/// The replayed state of one connection: what gqld keeps per session.
struct Replay {
  exec::DocumentRegistry view;
  std::unique_ptr<exec::Evaluator> ev;
  std::unique_ptr<server::Session> twin;  ///< Session::Handle timing only.
  std::map<std::string, std::string> prepared;
  uint64_t last_version = ~uint64_t{0};
  uint64_t next = 0;
};

/// Per-layer accumulators over the replay.
struct Acc {
  std::vector<double> front_end, exec_us, parse, analyze, render, recorder,
      commit, wal_append, handle, response_bytes;
  std::map<std::string, std::vector<double>> handle_by_class;
  std::vector<double> read_total;  ///< Root span of every read.
  std::map<std::string, std::vector<double>> read_total_by_class;
  double reads = 0, hits = 0, builds = 0, members = 0, retrieved = 0,
         refined = 0, steps = 0, est_cost = 0, matches = 0, stolen = 0,
         trips = 0, reordered = 0, us_retrieve = 0, us_refine = 0, us_order = 0,
         us_search = 0;
  double writes = 0, user_bytes = 0, wal_bytes = 0, wal_body = 0,
         checkpoints = 0;
  uint64_t wrong = 0;
  std::vector<double> checkpoint_us, checkpoint_bytes;
};

}  // namespace

Status RunTraced(const Args& args, Workload* w, const ServerRun& untraced,
                 double seconds, std::vector<Metric>* out) {
  const bool durable = !w->data_dir.empty();
  Acc acc;

  // ---- Set-up layers, timed in isolation on fresh copies of the docs.
  double snapshot_build_us = 0;
  double snapshot_bytes = 0;
  std::vector<double> index_build;
  double v3_bytes = 0;
  double v2_bytes = 0;
  for (const auto& [name, doc] : w->docs) {
    GQL_ASSIGN_OR_RETURN(GraphCollection copy, FreshCopy(*doc));
    auto t0 = Clock::now();
    copy.CompileAll();
    snapshot_build_us += Us(t0, Clock::now());
    snapshot_bytes += static_cast<double>(copy.TotalSnapshotBytes());
    for (const Graph& g : copy) {
      if (g.NumNodes() < 512) continue;  // Evaluator's index threshold.
      match::LabelIndexOptions iopts;
      iopts.build_neighborhoods = false;
      auto t1 = Clock::now();
      match::LabelIndex index = match::LabelIndex::Build(g, iopts);
      index_build.push_back(Us(t1, Clock::now()));
    }
    if (durable) {
      GQL_ASSIGN_OR_RETURN(std::vector<uint8_t> v3,
                           io::BuildCollectionV3(copy, 0));
      v3_bytes += static_cast<double>(v3.size());
      v2_bytes += static_cast<double>(V2Bytes(copy));
    }
  }
  const double mean_index_build = Mean(index_build);

  // ---- The in-process server: store, admission, recorder, sessions.
  // The durable engines outlive the store that points at them.
  std::unique_ptr<storage::DurableStore> ds;
  std::unique_ptr<storage::DurableStore> scratch;
  server::GraphStore store;
  server::AdmissionController admission({});
  obs::FlightRecorder recorder;
  server::ServerCounters counters;
  double recovery_us = 0;
  double recovery_records = 0;
  std::vector<double> v3_open;
  if (durable) {
    const std::string dir = args.workdir + "/traced-data";
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::copy(w->data_dir, dir, fs::copy_options::recursive, ec);
    if (ec) return Status::Internal("copy data dir: " + ec.message());
    for (auto& entry : fs::recursive_directory_iterator(dir)) {
      if (entry.path().extension() != ".gqls") continue;
      auto t0 = Clock::now();
      GQL_ASSIGN_OR_RETURN(io::OpenedCollectionV3 opened,
                           io::OpenCollectionV3(entry.path().string()));
      v3_open.push_back(Us(t0, Clock::now()));
    }
    storage::DurableStore::Options dopts;
    dopts.dir = dir;
    auto t0 = Clock::now();
    GQL_ASSIGN_OR_RETURN(ds, storage::DurableStore::Open(dopts));
    recovery_us = Us(t0, Clock::now());
    recovery_records =
        static_cast<double>(ds->recovery_stats().wal_records_replayed);
    store.set_durable_store(ds.get());
    store.Bootstrap(ds->recovered_docs(), ds->recovered_version());
    // Scratch engine for isolated WAL-append and checkpoint timings.
    storage::DurableStore::Options sopts;
    sopts.dir = args.workdir + "/traced-scratch";
    sopts.checkpoint_every = ~uint64_t{0};
    GQL_ASSIGN_OR_RETURN(scratch, storage::DurableStore::Open(sopts));
  } else {
    for (const auto& [name, doc] : w->docs) {
      GQL_RETURN_IF_ERROR(store.Publish(name, *doc).status());
    }
  }
  server::SessionContext ctx;
  ctx.store = &store;
  ctx.admission = &admission;
  ctx.recorder = &recorder;
  ctx.counters = &counters;
  std::vector<Replay> conns(static_cast<size_t>(w->connections));
  for (size_t c = 0; c < conns.size(); ++c) {
    Replay& r = conns[c];
    r.ev = std::make_unique<exec::Evaluator>(&r.view);
    r.ev->set_session_label("s" + std::to_string(c + 1));
    r.ev->set_shared_recorder(&recorder);
    r.ev->mutable_match_options()->num_threads = w->threads;
    r.twin = std::make_unique<server::Session>(100 + c, ctx);
    for (const server::Request& req : w->prelude) {
      if (req.op == server::Op::kPrepare) r.prepared[req.a] = req.b;
      server::Response resp = r.twin->Handle(req);
      if (resp.code != StatusCode::kOk) {
        return Status::Internal("twin prelude failed: " + resp.body);
      }
    }
  }
  obs::FlightRecorder scratch_recorder;
  std::map<std::string, std::shared_ptr<const GraphCollection>> live = w->docs;
  uint64_t scratch_version = 0;

  // ---- The replay: connections' streams interleaved round-robin.
  SpanLog spans;
  uint64_t request_id = 0;
  std::vector<uint8_t> is_write;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(std::max(0.5, seconds));
  const uint64_t commits_before = store.commits();
  const uint64_t checkpoints_before = durable ? ds->checkpoints() : 0;
  while (Clock::now() < deadline || request_id < conns.size()) {
    const int c = static_cast<int>(request_id % conns.size());
    Replay& r = conns[static_cast<size_t>(c)];
    Op op = w->next_op(c, r.next++);
    const uint64_t id = request_id++;
    is_write.push_back(op.write ? 1 : 0);
    if (op.write) {
      std::string load_frame = server::EncodeRequest(op.requests[0]);
      std::string pub_frame = server::EncodeRequest(op.requests[1]);
      int root = spans.Begin("request", -1, id);
      int s = spans.Begin("server.decode", root, id);
      auto load = server::DecodeRequest(std::string_view(load_frame).substr(4));
      spans.End(s);
      if (!load.ok()) return load.status();
      s = spans.Begin("io.read_text", root, id);
      auto parsed = io::ReadCollectionText(load->b);
      spans.End(s);
      if (!parsed.ok()) return parsed.status();
      GraphCollection c1 = std::move(parsed).value();
      c1.set_name(op.doc);
      s = spans.Begin("server.decode", root, id);
      auto pub = server::DecodeRequest(std::string_view(pub_frame).substr(4));
      spans.End(s);
      if (!pub.ok()) return pub.status();
      auto content = std::make_shared<const GraphCollection>(c1);
      const uint64_t ck0 = durable ? ds->checkpoints() : 0;
      const int commit = spans.Begin("server.commit", root, id);
      auto version = store.Publish(op.doc, std::move(c1));
      spans.End(commit);
      if (!version.ok()) return version.status();
      server::Response resp;
      resp.body = "published " + op.doc + " at version " +
                  std::to_string(*version);
      s = spans.Begin("server.encode", root, id);
      std::string enc = server::EncodeResponse(resp);
      spans.End(s);
      spans.End(root);
      live[op.doc] = content;
      acc.commit.push_back(spans.Duration(commit));
      acc.writes += 1;
      const double user = static_cast<double>(V2Bytes(*content));
      acc.user_bytes += user;
      acc.wal_body += user + 4 + static_cast<double>(op.doc.size());
      // Publish compiles the doc's snapshots first; time the same call on
      // a fresh copy.
      GQL_ASSIGN_OR_RETURN(GraphCollection fresh, FreshCopy(*content));
      auto tc = Clock::now();
      fresh.CompileAll();
      spans.AddChild("graph.snapshot_build", commit, Us(tc, Clock::now()));
      if (durable) {
        // The WAL append and checkpoint run inside Publish; time the same
        // public calls on the same inputs against a scratch engine.
        const uint64_t before = scratch->wal_bytes();
        auto t0 = Clock::now();
        GQL_RETURN_IF_ERROR(scratch->LogPublish(op.doc, *content,
                                                ++scratch_version));
        double wal_us = Us(t0, Clock::now());
        acc.wal_append.push_back(wal_us);
        acc.wal_bytes += static_cast<double>(scratch->wal_bytes() - before);
        spans.AddChild("storage.wal_append", commit, wal_us);
        if (ds->checkpoints() > ck0) {
          acc.checkpoints += 1;
          auto t1 = Clock::now();
          GQL_RETURN_IF_ERROR(scratch->Checkpoint(live, ++scratch_version));
          double ck_us = Us(t1, Clock::now());
          acc.checkpoint_us.push_back(ck_us);
          acc.checkpoint_bytes.push_back(
              static_cast<double>(DirBytes(scratch->dir())));
          spans.AddChild("storage.checkpoint", commit, ck_us);
        }
      }
      continue;
    }

    // A read, in Session::RunQuery's order.
    const server::Request& req = op.requests[0];
    std::string frame = server::EncodeRequest(req);
    int root = spans.Begin("request", -1, id);
    int s = spans.Begin("server.decode", root, id);
    auto decoded = server::DecodeRequest(std::string_view(frame).substr(4));
    spans.End(s);
    if (!decoded.ok()) return decoded.status();
    s = spans.Begin("server.admit", root, id);
    auto ticket = admission.TryAdmit(w->limits.max_memory_bytes);
    spans.End(s);
    if (!ticket.has_value()) {
      return Status::Internal("in-process admission shed");
    }
    s = spans.Begin("server.pin", root, id);
    auto snapshot = store.Pin();
    if (snapshot->version != r.last_version) {
      r.ev->InvalidateIndexCache();
      r.last_version = snapshot->version;
    }
    r.view.Clear();
    snapshot->FillRegistry(&r.view);
    spans.End(s);
    std::string text = decoded->a;
    std::vector<exec::PreparedParam> sites;
    const bool prepared = decoded->op == server::Op::kExecute;
    if (prepared) {
      s = spans.Begin("server.substitute", root, id);
      auto sub = server::SubstituteParams(r.prepared[decoded->a],
                                          decoded->params, &sites);
      spans.End(s);
      if (!sub.ok()) return sub.status();
      text = *sub;
    }
    r.ev->set_limits(w->limits);
    obs::Counter* builds = r.ev->metrics()->GetCounter("exec.index.builds");
    const uint64_t builds0 = builds->Value();
    const int run = spans.Begin("exec.run", root, id);
    auto result = prepared ? r.ev->RunPrepared(r.prepared[decoded->a], text,
                                               sites, decoded->params)
                           : r.ev->RunSource(text);
    spans.End(run);
    server::Response resp;
    int front_end = -1;
    if (result.ok()) {
      front_end = spans.AddChild("exec.front_end", run,
                                 static_cast<double>(result->front_end_us));
      int ex = spans.AddChild("exec.exec", run,
                              static_cast<double>(result->exec_us));
      const double nb = static_cast<double>(builds->Value() - builds0);
      if (nb > 0) spans.AddChild("exec.index_build", ex, nb * mean_index_build);
      double st[4] = {0, 0, 0, 0};
      for (const exec::StatementActuals& a : result->actuals) {
        st[0] += static_cast<double>(a.us_retrieve);
        st[1] += static_cast<double>(a.us_refine);
        st[2] += static_cast<double>(a.us_order);
        st[3] += static_cast<double>(a.us_search);
        acc.members += static_cast<double>(a.members);
        acc.retrieved += static_cast<double>(a.candidates_retrieved);
        acc.refined += static_cast<double>(a.candidates_refined);
        acc.steps += static_cast<double>(a.steps);
        acc.est_cost += a.est_cost;
        acc.matches += static_cast<double>(a.matches);
        acc.stolen += static_cast<double>(a.tasks_stolen);
      }
      spans.AddChild("match.retrieve", ex, st[0]);
      spans.AddChild("match.refine", ex, st[1]);
      spans.AddChild("match.order", ex, st[2]);
      spans.AddChild("match.search", ex, st[3]);
      acc.us_retrieve += st[0];
      acc.us_refine += st[1];
      acc.us_order += st[2];
      acc.us_search += st[3];
      acc.builds += nb;
      acc.front_end.push_back(static_cast<double>(result->front_end_us));
      acc.exec_us.push_back(static_cast<double>(result->exec_us));
      if (result->plan_source == "hit") acc.hits += 1;
      if (result->limits.tripped) acc.trips += 1;
      s = spans.Begin("io.render", root, id);
      resp.body = RenderBody(text, *result);
      spans.End(s);
      acc.render.push_back(spans.Duration(s));
      if (result->limits.tripped) resp.code = result->limits.code;
    } else {
      resp.code = result.status().code();
      resp.body = result.status().ToString();
    }
    s = spans.Begin("server.admit", root, id);
    ticket.reset();
    spans.End(s);
    s = spans.Begin("server.encode", root, id);
    std::string enc = server::EncodeResponse(resp);
    spans.End(s);
    spans.End(root);
    acc.reads += 1;
    acc.read_total.push_back(spans.Duration(root));
    acc.read_total_by_class[w->op_class(op)].push_back(spans.Duration(root));
    acc.response_bytes.push_back(static_cast<double>(enc.size()));
    auto want = w->expected.find(op.key);
    if (want == w->expected.end()) {
      return Status::Internal("no answer for " + op.key);
    }
    const Verdict verdict = Check(want->second, resp);
    if (verdict == Verdict::kWrong) ++acc.wrong;
    if (verdict == Verdict::kReordered) acc.reordered += 1;

    // Isolated timings of the same inputs, run after the request; they
    // become children of the spans that contain those calls in gqld: the
    // parse and analysis of a plan-cache miss inside exec.front_end, the
    // recorder append at the end of exec.run.
    auto t0 = Clock::now();
    auto program = lang::Parser::ParseProgram(text);
    const double parse_us = Us(t0, Clock::now());
    acc.parse.push_back(parse_us);
    double analyze_us = 0;
    if (program.ok()) {
      sema::AnalyzeOptions aopts;
      const exec::DocumentRegistry* view = &r.view;
      aopts.doc_exists = [view](const std::string& n) {
        return view->Find(n) != nullptr;
      };
      auto t1 = Clock::now();
      sema::Analysis analysis = sema::Analyze(*program, aopts);
      analyze_us = Us(t1, Clock::now());
      acc.analyze.push_back(analyze_us);
    }
    obs::QueryRecord record;
    record.session = r.ev->session_label();
    record.shape = text;
    auto t2 = Clock::now();
    scratch_recorder.Append(std::move(record), nullptr, std::string());
    const double recorder_us = Us(t2, Clock::now());
    acc.recorder.push_back(recorder_us);
    if (front_end >= 0 && result->plan_source != "hit") {
      spans.AddChild("lang.parse", front_end, parse_us);
      spans.AddChild("sema.analyze", front_end, analyze_us);
    }
    spans.AddChild("obs.recorder_append", run, recorder_us);
    auto t3 = Clock::now();
    server::Response twin = r.twin->Handle(*decoded);
    const double handle_us = Us(t3, Clock::now());
    acc.handle.push_back(handle_us);
    acc.handle_by_class[w->op_class(op)].push_back(handle_us);
    if (!Matches(want->second, twin)) ++acc.wrong;
  }
  if (acc.wrong > 0) {
    return Status::Internal(std::to_string(acc.wrong) +
                            " wrong answers in the traced replay");
  }
  std::string nesting = spans.CheckNesting();
  if (!nesting.empty()) return Status::Internal("span check: " + nesting);
  if (!args.trace_file.empty()) {
    GQL_RETURN_IF_ERROR(spans.WriteChromeTrace(args.trace_file, 2000));
  }

  // ---- Self time per layer.
  const std::vector<Span>& all = spans.spans();
  std::vector<double> self = spans.SelfTimes();
  std::map<std::string, double> layer_self;
  double total = 0;
  double unattributed = 0;
  double write_total = 0;
  double write_storage = 0;
  for (size_t i = 0; i < all.size(); ++i) {
    const bool write = is_write[all[i].request] != 0;
    if (all[i].parent < 0) {
      total += all[i].end_us - all[i].start_us;
      unattributed += self[i];
      if (write) write_total += all[i].end_us - all[i].start_us;
      continue;
    }
    const std::string layer = LayerOf(all[i].name);
    layer_self[layer] += self[i];
    if (write && (layer == "storage" || all[i].name == "server.commit")) {
      write_storage += self[i];
    }
  }

  // ---- Parallel vs serial search on the workload's own patterns, capped
  // at 100 matches (the served queries are uncapped; the cap is where
  // parallel root tasks diverge from the serial stop rule).
  double serial_steps = 0, parallel_steps = 0, serial_us = 0, parallel_us = 0;
  if (!w->patterns.empty()) {
    const GraphCollection& doc = *w->docs.at(w->pattern_doc);
    const Graph& g = doc[0];
    match::LabelIndex index = match::LabelIndex::Build(g, {});
    // Four patterns spread over the workload's sizes.
    for (size_t q = 0; q < std::min<size_t>(4, w->patterns.size()); ++q) {
      const size_t k = q * w->patterns.size() / 4;
      algebra::GraphPattern pattern =
          algebra::GraphPattern::FromGraph(w->patterns[k]);
      for (int threads : {0, kBenchCpus}) {
        match::PipelineOptions opts;
        opts.num_threads = threads;
        opts.match.exhaustive = true;
        opts.match.max_matches = 100;
        opts.metrics = nullptr;
        ResourceGovernor governor;
        GovernorLimits limits;
        limits.max_steps = kCappedCompareSteps;
        governor.Arm(limits);
        opts.governor = &governor;
        match::PipelineStats stats;
        auto t0 = Clock::now();
        auto matched = match::MatchPattern(pattern, g, &index, opts, &stats);
        const double us = Us(t0, Clock::now());
        (threads == 0 ? serial_steps : parallel_steps) +=
            static_cast<double>(stats.search.steps);
        (threads == 0 ? serial_us : parallel_us) += us;
      }
    }
  }

  // ---- Report.
  const double reads = std::max(1.0, acc.reads);
  std::vector<double> traced_reads = acc.read_total;
  std::vector<double> writes = untraced.write_us;
  const int wtail = TailPercentile(writes.size());
  // transport: untraced round trip minus Session::Handle, per class.
  double transport = 0;
  double transport_n = 0;
  for (auto& [cls, lat] : untraced.read_us_by_class) {
    auto h = acc.handle_by_class.find(cls);
    if (cls == "write" || h == acc.handle_by_class.end()) continue;
    std::vector<double> a = lat;
    std::vector<double> b = h->second;
    transport += (Percentile(&a, 50) - Percentile(&b, 50)) * lat.size();
    transport_n += static_cast<double>(lat.size());
  }
  const double n_req = static_cast<double>(acc.read_total.size());
  auto add = [&](const std::string& name, double v, const std::string& unit,
                 double n, const std::string& note = "") {
    out->push_back({name, v, unit, static_cast<uint64_t>(n), note});
  };
  const std::vector<double> decode = spans.DurationsOf("server.decode");
  const std::vector<double> encode = spans.DurationsOf("server.encode");
  add("server.decode_us", Mean(decode), "us", decode.size());
  add("server.encode_us", Mean(encode), "us", encode.size());
  add("server.admit_us", Mean(spans.DurationsOf("server.admit")) * 2, "us",
      reads, "TryAdmit + ticket release");
  add("server.pin_us", Mean(spans.DurationsOf("server.pin")), "us", reads);
  add("server.handle_us", Mean(acc.handle), "us", acc.handle.size(),
      "Session::Handle, no socket");
  add("server.transport_us", transport_n > 0 ? transport / transport_n : 0,
      "us", transport_n, "untraced p50 - handle p50, per class");
  add("server.response_bytes", Mean(acc.response_bytes), "bytes",
      acc.response_bytes.size());
  add("server.commit_us", Mean(acc.commit), "us", acc.commit.size());
  add("exec.front_end_us", Mean(acc.front_end), "us", acc.front_end.size());
  add("exec.exec_us", Mean(acc.exec_us), "us", acc.exec_us.size());
  add("exec.plan_hit_frac", acc.hits / reads, "frac", reads);
  add("exec.index_builds_per_read", acc.builds / reads, "count", reads);
  add("exec.index_build_us", mean_index_build, "us", index_build.size(),
      "LabelIndex::Build, profiles only, per doc graph");
  add("exec.members_per_read", acc.members / reads, "count", reads);
  add("exec.reordered_frac", acc.reordered / reads, "frac", reads,
      "answers equal to the serial oracle's as a set, not in order");
  add("lang.parse_us", Mean(acc.parse), "us", acc.parse.size(), "isolated");
  add("sema.analyze_us", Mean(acc.analyze), "us", acc.analyze.size(),
      "isolated");
  add("match.retrieve_us", acc.us_retrieve / reads, "us", reads);
  add("match.refine_us", acc.us_refine / reads, "us", reads);
  add("match.order_us", acc.us_order / reads, "us", reads);
  add("match.search_us", acc.us_search / reads, "us", reads);
  add("match.candidates_retrieved", acc.retrieved / reads, "count", reads);
  add("match.refine_kept_frac",
      acc.retrieved > 0 ? acc.refined / acc.retrieved : 0, "frac", reads);
  add("match.est_cost_per_step", acc.steps > 0 ? acc.est_cost / acc.steps : 0,
      "ratio", reads);
  add("match.search_steps", acc.steps / reads, "count", reads);
  add("match.matches_per_mstep",
      acc.steps > 0 ? acc.matches / (acc.steps / 1e6) : 0, "count", reads);
  add("match.parallel_steps_ratio",
      serial_steps > 0 ? parallel_steps / serial_steps : 0, "ratio",
      std::min<size_t>(4, w->patterns.size()),
      "capped at 100 matches, " + std::to_string(kBenchCpus) +
          " workers vs serial");
  add("match.parallel_speedup", parallel_us > 0 ? serial_us / parallel_us : 0,
      "ratio", std::min<size_t>(4, w->patterns.size()));
  add("common.pool_tasks_stolen", acc.stolen / reads, "count", reads);
  add("common.governor_trips_per_kread", 1000.0 * acc.trips / reads, "count",
      reads);
  add("graph.snapshot_build_us", snapshot_build_us, "us", w->docs.size(),
      "CompileAll over every doc");
  add("graph.snapshot_bytes", snapshot_bytes, "bytes", w->docs.size());
  add("io.render_text_us", Mean(acc.render), "us", acc.render.size());
  add("io.wal_body_bytes", acc.writes > 0 ? acc.wal_body / acc.writes : 0,
      "bytes", acc.writes);
  add("io.v3_bytes_per_user_byte", v2_bytes > 0 ? v3_bytes / v2_bytes : 0,
      "ratio", durable ? 2 : 0);
  add("io.v3_open_us", Mean(v3_open), "us", v3_open.size());
  add("storage.wal_append_us", Mean(acc.wal_append), "us",
      acc.wal_append.size(), "isolated LogPublish, fsync included");
  add("storage.checkpoint_us", Mean(acc.checkpoint_us), "us",
      acc.checkpoint_us.size(), "isolated Checkpoint of the live docs");
  add("storage.checkpoint_bytes", Mean(acc.checkpoint_bytes), "bytes",
      acc.checkpoint_bytes.size());
  const double commits = static_cast<double>(store.commits() - commits_before);
  add("storage.commit_stall_frac",
      durable && commits > 0
          ? static_cast<double>(ds->checkpoints() - checkpoints_before) /
                commits
          : 0,
      "frac", commits);
  double ck_written = 0;
  if (!acc.checkpoint_bytes.empty()) {
    ck_written = acc.checkpoints * Mean(acc.checkpoint_bytes);
  }
  add("storage.bytes_written_per_user_byte",
      acc.user_bytes > 0 ? (acc.wal_bytes + ck_written) / acc.user_bytes : 0,
      "ratio", acc.writes);
  add("storage.recovery_us", recovery_us, "us", durable ? 1 : 0);
  add("storage.recovery_wal_records", recovery_records, "count",
      durable ? 1 : 0);
  add("obs.recorder_append_us", Mean(acc.recorder), "us",
      acc.recorder.size(), "isolated FlightRecorder::Append");
  // `common` (thread pool, governor) runs only inside match stages and
  // has no public call of its own to time, so it gets no span.
  for (const char* layer : {"server", "exec", "lang", "sema", "match", "graph",
                            "io", "storage", "obs"}) {
    add(std::string(layer) + ".self_frac",
        total > 0 ? layer_self[layer] / total : 0, "frac", n_req,
        "share of traced request time");
  }
  add("trace.unattributed_frac", total > 0 ? unattributed / total : 0, "frac",
      n_req);
  add("trace.write_commit_storage_frac",
      write_total > 0 ? write_storage / write_total : 0, "frac", acc.writes,
      "storage + server.commit self time over write requests");
  add("trace.read_p50_us", Percentile(&traced_reads, 50), "us",
      traced_reads.size(), "traced in-process request span");
  // Tracing overhead: the traced request span minus the untraced
  // in-process Session::Handle of the same requests, per class.
  double overhead = 0;
  for (auto& [cls, lat] : acc.read_total_by_class) {
    std::vector<double> a = lat;
    std::vector<double> b = acc.handle_by_class[cls];
    overhead += (Percentile(&a, 50) - Percentile(&b, 50)) * lat.size();
  }
  add("trace.overhead_us", n_req > 0 ? overhead / n_req : 0, "us", n_req,
      "traced p50 - Session::Handle p50, per class");
  add("failed_frac",
      untraced.attempted > 0
          ? static_cast<double>(untraced.failed) / untraced.attempted
          : 0,
      "frac", untraced.attempted, "untraced pass");
  {
    std::vector<double> reads = untraced.read_us;
    const int tail = TailPercentile(reads.size());
    add("read_tail_us", Percentile(&reads, tail), "us", reads.size(),
        "p" + std::to_string(tail) + ", untraced pass");
  }
  add("write_p50_us", Percentile(&writes, 50), "us", writes.size(),
      "untraced pass");
  add("write_tail_us", Percentile(&writes, wtail), "us", writes.size(),
      "p" + std::to_string(wtail) + ", untraced pass");
  add("disk_bytes_per_user_byte",
      untraced.live_user_bytes > 0
          ? untraced.disk_bytes / untraced.live_user_bytes
          : 0,
      "ratio", durable ? 1 : 0, "after the clean-shutdown checkpoint");
  return Status::OK();
}

}  // namespace gqlbench
