#include "server/session.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "io/serialize.h"
#include "lang/parser.h"
#include "sema/diagnostic.h"
#include "storage/engine.h"

namespace graphql::server {

namespace {

/// Graphs rendered into a query response body are capped; the count line
/// always reports the true total.
constexpr size_t kMaxRenderedGraphs = 100;

Response ErrorResponse(const Status& status) {
  Response resp;
  resp.code = status.code();
  resp.body = status.ToString();
  return resp;
}

Response ShedResponse(uint32_t retry_after_ms, std::string why) {
  Response resp;
  resp.code = StatusCode::kResourceExhausted;
  resp.retry_after_ms = retry_after_ms;
  resp.body = std::move(why);
  return resp;
}

/// Renders a parameter as GraphQL source with proper string escaping
/// (Value::ToString does not escape embedded quotes).
std::string RenderLiteral(const Value& v) {
  if (!v.is_string()) return v.ToString();
  std::string out = "\"";
  for (char c : v.AsString()) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out.push_back(c);
    }
  }
  out += "\"";
  return out;
}

}  // namespace

Result<std::string> SubstituteParams(const std::string& text,
                                     const std::vector<Value>& params,
                                     std::vector<exec::PreparedParam>* sites) {
  std::string out;
  out.reserve(text.size());
  bool in_string = false;
  bool in_comment = false;
  // 1-based position of the NEXT output character, tracked so each
  // substitution can record where its rendered literal starts — the exact
  // line/column the lexer will give that literal's token, which is how
  // the evaluator finds the parameter's Expr node (exec::PreparedParam).
  int line = 1;
  int column = 1;
  auto emit = [&](char c) {
    out.push_back(c);
    if (c == '\n') {
      ++line;
      column = 1;
    } else {
      ++column;
    }
  };
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_comment) {
      emit(c);
      if (c == '\n') in_comment = false;
      continue;
    }
    if (in_string) {
      emit(c);
      if (c == '\\' && i + 1 < text.size()) {
        emit(text[++i]);
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
      emit(c);
      continue;
    }
    if (c == '/' && i + 1 < text.size() && text[i + 1] == '/') {
      in_comment = true;
      emit(c);
      continue;
    }
    if (c == '$' && i + 1 < text.size() &&
        std::isdigit(static_cast<unsigned char>(text[i + 1]))) {
      size_t end = i + 1;
      while (end < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[end]))) {
        ++end;
      }
      unsigned long idx = std::strtoul(text.substr(i + 1, end - i - 1).c_str(),
                                       nullptr, 10);
      if (idx == 0 || idx > params.size()) {
        return Status::InvalidArgument(
            "placeholder $" + std::to_string(idx) + " has no bound parameter (" +
            std::to_string(params.size()) + " supplied)");
      }
      if (sites != nullptr) {
        sites->push_back({line, column, static_cast<size_t>(idx - 1)});
      }
      // Rendered literals never contain a raw newline (RenderLiteral
      // escapes them), so the position advances within the line.
      std::string rendered = RenderLiteral(params[idx - 1]);
      out += rendered;
      column += static_cast<int>(rendered.size());
      i = end - 1;
      continue;
    }
    emit(c);
  }
  return out;
}

Result<std::string> SubstituteParams(const std::string& text,
                                     const std::vector<Value>& params) {
  return SubstituteParams(text, params, nullptr);
}

Session::Session(uint64_t id, const SessionContext& ctx)
    : id_(id), label_("s" + std::to_string(id)), ctx_(ctx),
      evaluator_(&view_), limits_(ctx.default_limits) {
  evaluator_.set_session_label(label_);
  if (ctx_.recorder != nullptr) {
    evaluator_.set_shared_recorder(ctx_.recorder);
  }
}

Response Session::Handle(const Request& req) {
  switch (req.op) {
    case Op::kHello: {
      Response resp;
      resp.body = "gqld proto=" + std::to_string(kProtocolVersion) +
                  " session=" + label_;
      return resp;
    }
    case Op::kPing: {
      Response resp;
      resp.body = "pong";
      return resp;
    }
    case Op::kClose: {
      closed_ = true;
      Response resp;
      resp.body = "bye";
      return resp;
    }
    case Op::kQuery:
      return RunQueryText(req.a);
    case Op::kPrepare:
      return HandlePrepare(req.a, req.b);
    case Op::kExecute:
      return HandleExecute(req);
    case Op::kSet:
      return HandleSet(req.a);
    case Op::kLoadText:
      return HandleLoadText(req.a, req.b);
    case Op::kPublish:
      return HandlePublish(req.a, req.b);
    case Op::kDrop: {
      if (Draining()) {
        return ShedResponse(ctx_.admission->retry_after_ms(),
                            "server is draining; no new commits");
      }
      auto v = ctx_.store->Drop(req.a);
      if (!v.ok()) return ErrorResponse(v.status());
      Response resp;
      resp.body = "dropped " + req.a + " at version " + std::to_string(*v);
      return resp;
    }
    case Op::kStats:
      return HandleStats();
    case Op::kRecent:
      return HandleRecent(req.n);
  }
  return ErrorResponse(Status::Internal("unhandled op"));
}

Response Session::RunQueryText(const std::string& text) {
  return RunQuery(text, nullptr);
}

Response Session::RunQuery(const std::string& text, const PreparedRun* prep) {
  if (Draining()) {
    return ShedResponse(ctx_.admission->retry_after_ms(),
                        "server is draining; no new queries");
  }
  // Admission: reserve the session's memory budget (or the default slice)
  // from the shared pool, or shed with a structured retry-after.
  std::optional<AdmissionController::Ticket> ticket =
      ctx_.admission->TryAdmit(limits_.max_memory_bytes);
  if (!ticket.has_value()) {
    if (ctx_.counters != nullptr) {
      ctx_.counters->shed_queries.fetch_add(1, std::memory_order_relaxed);
    }
    return ShedResponse(ctx_.admission->retry_after_ms(),
                        "server saturated (admission refused); retry later");
  }
  if (ctx_.counters != nullptr) {
    ctx_.counters->queries.fetch_add(1, std::memory_order_relaxed);
  }

  // Pin one store snapshot for the query's whole lifetime (held until this
  // function returns): every doc("...") resolves against it, no matter
  // what commits land meanwhile.
  std::shared_ptr<const GraphStore::StoreSnapshot> snapshot =
      ctx_.store->Pin();
  view_.Clear();
  snapshot->FillRegistry(&view_);
  for (const auto& [name, collection] : local_docs_) {
    view_.RegisterShared(name, collection);  // Local shadows shared.
  }

  // Per-query deadline inherited from the session, clamped by the server
  // cap (an unlimited session inherits the cap itself).
  GovernorLimits effective = limits_;
  if (ctx_.max_timeout_ms > 0 &&
      (effective.timeout_ms == 0 ||
       effective.timeout_ms > ctx_.max_timeout_ms)) {
    effective.timeout_ms = ctx_.max_timeout_ms;
  }
  evaluator_.set_limits(effective);

  auto result = prep != nullptr
                    ? evaluator_.RunPrepared(*prep->template_text, text,
                                             *prep->sites, *prep->params)
                    : evaluator_.RunSource(text);
  if (!result.ok()) return ErrorResponse(result.status());

  Response resp;
  std::string& body = resp.body;
  for (const sema::Diagnostic& d : result->diagnostics) {
    body += sema::RenderDiagnostic(text, d);
    body += "\n";
  }
  for (const auto& [name, graph] : result->variables) {
    body += "bound " + name + ": " + std::to_string(graph.NumNodes()) +
            " nodes, " + std::to_string(graph.NumEdges()) + " edges\n";
  }
  if (result->returned.size() > 0) {
    body += "returned " + std::to_string(result->returned.size()) +
            " graphs:\n";
    size_t shown = 0;
    for (const Graph& g : result->returned) {
      body += io::WriteGraphText(g);
      body += "\n";
      if (++shown >= kMaxRenderedGraphs &&
          result->returned.size() > kMaxRenderedGraphs) {
        body += "... (" +
                std::to_string(result->returned.size() - shown) +
                " more)\n";
        break;
      }
    }
  }
  body += result->limits.ToString();
  if (result->limits.tripped) {
    // Partial results ride along, but the structured code tells the
    // client the governor ended the query (degrade path, not failure).
    resp.code = result->limits.code;
  }
  return resp;
}

Response Session::HandleSet(const std::string& spec) {
  std::istringstream in(spec);
  std::string key;
  std::string value;
  in >> key >> value;
  char* end = nullptr;
  long long n = value.empty() ? -1 : std::strtoll(value.c_str(), &end, 10);
  if (n < 0 || end == nullptr || *end != '\0') {
    return ErrorResponse(Status::InvalidArgument(
        "usage: set {timeout_ms|max_steps|max_memory_mb|threads|plan_cache} "
        "N"));
  }
  if (key == "timeout_ms") {
    limits_.timeout_ms = n;
  } else if (key == "max_steps") {
    limits_.max_steps = static_cast<uint64_t>(n);
  } else if (key == "max_memory_mb") {
    limits_.max_memory_bytes = static_cast<uint64_t>(n) * 1024 * 1024;
  } else if (key == "threads") {
    evaluator_.mutable_match_options()->num_threads = static_cast<int>(n);
  } else if (key == "plan_cache") {
    evaluator_.set_plan_cache_capacity(static_cast<size_t>(n) * 1024 * 1024);
  } else {
    return ErrorResponse(Status::InvalidArgument(
        "unknown limit '" + key +
        "' (timeout_ms, max_steps, max_memory_mb, threads, plan_cache)"));
  }
  Response resp;
  resp.body = RenderLimitsLine();
  return resp;
}

std::string Session::RenderLimitsLine() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "timeout_ms=%lld max_steps=%llu max_memory_mb=%llu "
                "threads=%d",
                static_cast<long long>(limits_.timeout_ms),
                static_cast<unsigned long long>(limits_.max_steps),
                static_cast<unsigned long long>(limits_.max_memory_bytes /
                                                (1024 * 1024)),
                const_cast<Session*>(this)
                    ->evaluator_.mutable_match_options()
                    ->num_threads);
  return buf;
}

Response Session::HandlePrepare(const std::string& name,
                                const std::string& text) {
  if (name.empty()) {
    return ErrorResponse(
        Status::InvalidArgument("prepared query needs a name"));
  }
  // Count distinct placeholders and validate the template parses with
  // dummy values substituted (so malformed programs fail at prepare time,
  // not on the Nth execute).
  size_t max_param = 0;
  {
    std::vector<Value> dummies(9, Value(int64_t{0}));
    auto substituted = SubstituteParams(text, dummies);
    if (!substituted.ok()) return ErrorResponse(substituted.status());
    for (size_t i = 0; i + 1 < text.size(); ++i) {
      if (text[i] == '$' &&
          std::isdigit(static_cast<unsigned char>(text[i + 1]))) {
        max_param = std::max(
            max_param, static_cast<size_t>(text[i + 1] - '0'));
      }
    }
    auto parsed = lang::Parser::ParseProgram(*substituted);
    if (!parsed.ok()) return ErrorResponse(parsed.status());
  }
  prepared_[name] = text;
  Response resp;
  resp.body = "prepared " + name + " (" + std::to_string(max_param) +
              " params)";
  return resp;
}

Response Session::HandleExecute(const Request& req) {
  auto it = prepared_.find(req.a);
  if (it == prepared_.end()) {
    return ErrorResponse(
        Status::NotFound("no prepared query '" + req.a + "'"));
  }
  std::vector<exec::PreparedParam> sites;
  auto substituted = SubstituteParams(it->second, req.params, &sites);
  if (!substituted.ok()) return ErrorResponse(substituted.status());
  // Prepared executions share one plan-cache entry across parameter
  // values (the evaluator patches the bound literals into the cached
  // plan); see Evaluator::RunPrepared.
  PreparedRun prep{&it->second, &sites, &req.params};
  return RunQuery(*substituted, &prep);
}

Response Session::HandleLoadText(const std::string& name,
                                 const std::string& text) {
  if (name.empty()) {
    return ErrorResponse(Status::InvalidArgument("load needs a doc name"));
  }
  auto collection = io::ReadCollectionText(text);
  if (!collection.ok()) return ErrorResponse(collection.status());
  GraphCollection c = std::move(collection).value();
  c.set_name(name);
  size_t graphs = c.size();
  local_docs_[name] =
      std::make_shared<const GraphCollection>(std::move(c));
  Response resp;
  resp.body = "doc(\"" + name + "\"): " + std::to_string(graphs) +
              " graphs (session-local)";
  return resp;
}

Response Session::HandlePublish(const std::string& doc,
                                const std::string& var) {
  if (Draining()) {
    return ShedResponse(ctx_.admission->retry_after_ms(),
                        "server is draining; no new commits");
  }
  if (doc.empty()) {
    return ErrorResponse(Status::InvalidArgument("publish needs a doc name"));
  }
  GraphCollection c;
  if (const Graph* g = evaluator_.Variable(var); g != nullptr) {
    c.Add(*g);
  } else if (auto it = local_docs_.find(var); it != local_docs_.end()) {
    c = *it->second;  // Publish a session-local doc store-wide.
  } else {
    return ErrorResponse(Status::NotFound(
        "no session variable or local doc '" + var + "' to publish"));
  }
  auto version = ctx_.store->Publish(doc, std::move(c));
  if (!version.ok()) return ErrorResponse(version.status());
  Response resp;
  resp.body = "published " + doc + " at version " + std::to_string(*version);
  return resp;
}

Response Session::HandleStats() {
  Response resp;
  std::string& body = resp.body;
  auto snapshot = ctx_.store->Pin();
  body += "store: version=" + std::to_string(snapshot->version) +
          " docs=" + std::to_string(snapshot->docs.size()) +
          " commits=" + std::to_string(ctx_.store->commits()) +
          " aborted_commits=" + std::to_string(ctx_.store->aborted_commits()) +
          "\n";
  for (const auto& [name, collection] : snapshot->docs) {
    body += "  doc(\"" + name + "\"): " +
            std::to_string(collection->size()) + " graphs, " +
            std::to_string(collection->TotalNodes()) + " nodes, " +
            std::to_string(collection->TotalEdges()) + " edges\n";
  }
  if (const storage::DurableStore* ds = ctx_.store->durable();
      ds != nullptr) {
    body += "durable: dir=" + ds->dir() +
            " wal_records=" + std::to_string(ds->wal_records()) +
            " wal_bytes=" + std::to_string(ds->wal_bytes()) +
            " checkpoints=" + std::to_string(ds->checkpoints()) +
            " failed_checkpoints=" + std::to_string(ds->failed_checkpoints()) +
            " resident_mapped_bytes=" +
            std::to_string(ds->resident_mapped_bytes()) +
            (ds->poisoned() ? " POISONED" : "") + "\n";
  }
  body += "admission: active=" + std::to_string(ctx_.admission->active()) +
          "/" + std::to_string(ctx_.admission->max_concurrent()) +
          " admitted=" + std::to_string(ctx_.admission->admitted()) +
          " shed=" + std::to_string(ctx_.admission->shed()) +
          " pool_used=" + std::to_string(ctx_.admission->pool_used()) + "/" +
          std::to_string(ctx_.admission->memory_pool_bytes()) + "\n";
  if (ctx_.counters != nullptr) {
    body +=
        "server: connections=" +
        std::to_string(ctx_.counters->connections.load()) +
        " queries=" + std::to_string(ctx_.counters->queries.load()) +
        " shed_queries=" +
        std::to_string(ctx_.counters->shed_queries.load()) +
        " shed_connections=" +
        std::to_string(ctx_.counters->shed_connections.load()) +
        " protocol_errors=" +
        std::to_string(ctx_.counters->protocol_errors.load()) +
        " disconnect_cancels=" +
        std::to_string(ctx_.counters->disconnect_cancels.load()) + "\n";
  }
  if (ctx_.recorder != nullptr) {
    obs::HistogramSnapshot wall = ctx_.recorder->WallHistogram();
    body += "wall: p50~" + std::to_string(wall.P50()) + "us p95~" +
            std::to_string(wall.P95()) + "us p99~" +
            std::to_string(wall.P99()) + "us over " +
            std::to_string(wall.count) + " queries\n";
  }
  return resp;
}

Response Session::HandleRecent(uint32_t n) {
  Response resp;
  const obs::FlightRecorder* rec =
      ctx_.recorder != nullptr ? ctx_.recorder : evaluator_.recorder();
  if (n == 0 || n > 1000) n = 10;
  for (const obs::QueryRecord& r : rec->Recent(n)) {
    resp.body += r.ToLine();
    resp.body += "\n";
  }
  if (resp.body.empty()) resp.body = "no queries recorded yet\n";
  return resp;
}

}  // namespace graphql::server
