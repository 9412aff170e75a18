#include "exec/evaluator.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "common/thread_pool.h"
#include "lang/lexer.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "obs/clock.h"
#include "obs/trace_export.h"

namespace graphql::exec {

namespace {

/// Collects every literal Expr node in `e` (in-order) into `out`. Used by
/// RunPrepared to locate the Expr nodes the substituted parameters parsed
/// into.
void CollectLiteralExprs(const lang::ExprPtr& e,
                         std::vector<lang::Expr*>* out) {
  if (e == nullptr) return;
  switch (e->kind) {
    case lang::Expr::Kind::kLiteral:
      out->push_back(e.get());
      break;
    case lang::Expr::Kind::kBinary:
      CollectLiteralExprs(e->lhs, out);
      CollectLiteralExprs(e->rhs, out);
      break;
    case lang::Expr::Kind::kName:
      break;
  }
}

/// Literal nodes of a graph body that are *evaluated per run* when the
/// body is used as a PATTERN: the node/edge where-clauses (routed into
/// pattern predicates as shared Expr nodes, EvalPredicate reads them at
/// match time). Deliberately excluded: tuple-literal values (baked into
/// attribute requirements when the pattern compiles) and unify
/// where-clauses (resolved during motif construction) — a parameter
/// landing there cannot be patched after compilation.
void CollectPatternBodyLiterals(const lang::GraphBody& body,
                                std::vector<lang::Expr*>* out) {
  for (const lang::MemberDecl& m : body.members) {
    switch (m.kind) {
      case lang::MemberDecl::Kind::kNode:
        CollectLiteralExprs(m.node.where, out);
        break;
      case lang::MemberDecl::Kind::kEdge:
        CollectLiteralExprs(m.edge.where, out);
        break;
      case lang::MemberDecl::Kind::kDisjunction:
        for (const auto& alt : m.alternatives) {
          if (alt != nullptr) CollectPatternBodyLiterals(*alt, out);
        }
        break;
      default:
        break;
    }
  }
}

/// Literal nodes of a graph decl used as a TEMPLATE (return/let): the
/// whole decl — tuple entries included — is instantiated from the AST on
/// every run (GraphTemplate::Create inside RunFlwr), so every literal in
/// it is patchable.
void CollectTemplateLiterals(const lang::GraphDecl& decl,
                             std::vector<lang::Expr*>* out);

void CollectTemplateBodyLiterals(const lang::GraphBody& body,
                                 std::vector<lang::Expr*>* out) {
  for (const lang::MemberDecl& m : body.members) {
    switch (m.kind) {
      case lang::MemberDecl::Kind::kNode:
        if (m.node.tuple) {
          for (const auto& [k, v] : m.node.tuple->entries) {
            CollectLiteralExprs(v, out);
          }
        }
        CollectLiteralExprs(m.node.where, out);
        break;
      case lang::MemberDecl::Kind::kEdge:
        if (m.edge.tuple) {
          for (const auto& [k, v] : m.edge.tuple->entries) {
            CollectLiteralExprs(v, out);
          }
        }
        CollectLiteralExprs(m.edge.where, out);
        break;
      case lang::MemberDecl::Kind::kUnify:
        CollectLiteralExprs(m.unify.where, out);
        break;
      case lang::MemberDecl::Kind::kDisjunction:
        for (const auto& alt : m.alternatives) {
          if (alt != nullptr) CollectTemplateBodyLiterals(*alt, out);
        }
        break;
      default:
        break;
    }
  }
}

void CollectTemplateLiterals(const lang::GraphDecl& decl,
                             std::vector<lang::Expr*>* out) {
  if (decl.tuple) {
    for (const auto& [k, v] : decl.tuple->entries) {
      CollectLiteralExprs(v, out);
    }
  }
  CollectTemplateBodyLiterals(decl.body, out);
  CollectLiteralExprs(decl.where, out);
}

/// Every literal Expr in `program` that the execution pipeline re-reads
/// from the AST on each run — the positions where a prepared parameter
/// may soundly be patched between replays.
std::vector<lang::Expr*> CollectPatchableLiterals(lang::Program* program) {
  std::vector<lang::Expr*> out;
  for (lang::Statement& stmt : program->statements) {
    if (stmt.kind != lang::Statement::Kind::kFlwr) continue;
    lang::FlwrExpr& flwr = stmt.flwr;
    CollectLiteralExprs(flwr.where, &out);
    if (flwr.pattern) {
      CollectLiteralExprs(flwr.pattern->where, &out);
      CollectPatternBodyLiterals(flwr.pattern->body, &out);
    }
    if (flwr.template_decl) {
      CollectTemplateLiterals(*flwr.template_decl, &out);
    }
  }
  return out;
}

/// One character per parameter type for the prepared-plan key: rebinding
/// a slot to a different type recompiles (the cached semantic analysis is
/// type-sensitive); same-type rebinds share the entry.
std::string ParamKindSignature(const std::vector<Value>& params) {
  std::string kinds;
  kinds.reserve(params.size());
  for (const Value& v : params) {
    if (v.is_int()) {
      kinds.push_back('i');
    } else if (v.is_double()) {
      kinds.push_back('f');
    } else if (v.is_string()) {
      kinds.push_back('s');
    } else if (v.is_bool()) {
      kinds.push_back('b');
    } else {
      kinds.push_back('?');
    }
  }
  return kinds;
}

const char* StatementKindName(lang::Statement::Kind kind) {
  switch (kind) {
    case lang::Statement::Kind::kGraphDecl:
      return "graph-decl";
    case lang::Statement::Kind::kAssign:
      return "assign";
    case lang::Statement::Kind::kFlwr:
      return "flwr";
  }
  return "?";
}

std::string FormatSize(size_t n) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%zu", n);
  return buf;
}

std::string_view PunctuationLexeme(lang::TokenKind kind) {
  using lang::TokenKind;
  switch (kind) {
    case TokenKind::kLBrace: return "{";
    case TokenKind::kRBrace: return "}";
    case TokenKind::kLParen: return "(";
    case TokenKind::kRParen: return ")";
    case TokenKind::kLAngle: return "<";
    case TokenKind::kRAngle: return ">";
    case TokenKind::kComma: return ",";
    case TokenKind::kSemicolon: return ";";
    case TokenKind::kDot: return ".";
    case TokenKind::kAssign: return "=";
    case TokenKind::kColonEq: return ":=";
    case TokenKind::kPipe: return "|";
    case TokenKind::kAmp: return "&";
    case TokenKind::kPlus: return "+";
    case TokenKind::kMinus: return "-";
    case TokenKind::kStar: return "*";
    case TokenKind::kSlash: return "/";
    case TokenKind::kEq: return "==";
    case TokenKind::kNe: return "!=";
    case TokenKind::kGe: return ">=";
    case TokenKind::kLe: return "<=";
    default: return "";
  }
}

/// The flight recorder's query shape: the printed AST re-tokenized with
/// every literal replaced by `?`, so runs differing only in constants
/// share one shape (and one `:top` aggregate).
std::string NormalizeShape(const lang::Program& program) {
  std::string printed = lang::PrintProgram(program);
  Result<std::vector<lang::Token>> tokens = lang::Lexer(printed).Tokenize();
  if (!tokens.ok()) return printed;  // Printer output always lexes.
  std::string out;
  for (const lang::Token& t : tokens.value()) {
    if (t.kind == lang::TokenKind::kEnd) break;
    std::string_view piece;
    switch (t.kind) {
      case lang::TokenKind::kInt:
      case lang::TokenKind::kFloat:
      case lang::TokenKind::kString:
        piece = "?";
        break;
      default:
        piece = t.text.empty() ? PunctuationLexeme(t.kind) : t.text;
        break;
    }
    if (piece.empty()) continue;
    if (!out.empty()) out.push_back(' ');
    out.append(piece);
  }
  return out;
}

void AppendMs(int64_t us, std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(us) / 1e3);
  out->append(buf);
}

/// The per-statement "actual:" lines of EXPLAIN ANALYZE.
void AppendActualLines(const StatementActuals& a, std::string* out) {
  char buf[256];
  if (!a.is_flwr) {
    out->append("    actual: ");
    AppendMs(a.wall_us, out);
    out->push_back('\n');
    return;
  }
  out->append("    actual: ");
  AppendMs(a.wall_us, out);
  out->append(" (retrieve=");
  AppendMs(a.us_retrieve, out);
  out->append(" refine=");
  AppendMs(a.us_refine, out);
  out->append(" order=");
  AppendMs(a.us_order, out);
  out->append(" search=");
  AppendMs(a.us_search, out);
  std::snprintf(buf, sizeof(buf), ") over %zu member graph%s\n", a.members,
                a.members == 1 ? "" : "s");
  out->append(buf);
  std::snprintf(buf, sizeof(buf),
                "    actual: candidates attr=%" PRIu64 " -> retrieved=%" PRIu64
                " -> refined=%" PRIu64 "\n",
                a.candidates_attr, a.candidates_retrieved,
                a.candidates_refined);
  out->append(buf);
  std::snprintf(buf, sizeof(buf),
                "    actual: est-cost=%.1f vs search steps=%" PRIu64
                " (edge-checks=%" PRIu64 ", backtracks=%" PRIu64
                ", pred-rejects=%" PRIu64 "), matches=%" PRIu64 "\n",
                a.est_cost, a.steps, a.edge_checks, a.backtracks,
                a.pred_rejects, a.matches);
  out->append(buf);
  std::snprintf(buf, sizeof(buf),
                "    actual: snapshot-probes=%" PRIu64
                ", threads=%d, tasks-stolen=%" PRIu64 "%s\n",
                a.snapshot_probes, a.threads, a.tasks_stolen,
                a.refine_degraded ? ", refine-degraded" : "");
  out->append(buf);
  std::snprintf(buf, sizeof(buf), "    actual: refined %zu of %zu member%s",
                a.members_refined, a.members, a.members == 1 ? "" : "s");
  out->append(buf);
  if (a.attempts > 0) {
    std::snprintf(buf, sizeof(buf),
                  "; on demand: %zu search attempt%s made %" PRIu64
                  " tries against a budget of %" PRIu64
                  ", %zu overran and refined",
                  a.attempts, a.attempts == 1 ? "" : "s", a.attempt_tries,
                  a.attempt_budget, a.members_refined);
    out->append(buf);
  }
  out->push_back('\n');
}

}  // namespace

Evaluator::Evaluator(const DocumentRegistry* docs) : docs_(docs) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) read-only env lookup; no setenv anywhere
  const char* path = std::getenv("GQL_TRACE_EXPORT");
  if (path != nullptr && *path != '\0') trace_export_path_ = path;
  size_t cache_bytes = size_t{8} << 20;
  // NOLINTNEXTLINE(concurrency-mt-unsafe) read-only env lookup
  const char* cache_env = std::getenv("GQL_PLAN_CACHE");
  if (cache_env != nullptr && *cache_env != '\0') {
    cache_bytes = std::string_view(cache_env) == "off"
                      ? 0
                      : static_cast<size_t>(
                            std::strtoull(cache_env, nullptr, 10))
                            << 20;
  }
  if (cache_bytes > 0) plan_cache_ = std::make_unique<PlanCache>(cache_bytes);
}

void Evaluator::set_plan_cache_capacity(size_t bytes) {
  plan_cache_ =
      bytes == 0 ? nullptr : std::make_unique<PlanCache>(bytes);
}

std::string LimitReport::ToString() const {
  if (!tripped && !truncated && degradations.empty()) {
    return "";
  }
  std::string out;
  if (tripped) {
    out += "limit tripped: ";
    out += message;
    out += " (status=";
    out += StatusCodeName(code);
    out += ", results are partial)\n";
  }
  if (truncated) out += "match cap reached: result truncated\n";
  for (const std::string& d : degradations) {
    out += "degraded: " + d + "\n";
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "consumed: steps=%llu, peak_memory=%zu bytes, elapsed=%lld ms\n",
                static_cast<unsigned long long>(steps_used), peak_memory_bytes,
                static_cast<long long>(elapsed_ms));
  out += buf;
  return out;
}

sema::Analysis Evaluator::Analyze(const lang::Program& program) const {
  sema::AnalyzeOptions opts;
  opts.motifs = &motifs_;
  opts.build = build_options_;
  opts.doc_exists = [this](const std::string& name) {
    return docs_ != nullptr && docs_->Find(name) != nullptr;
  };
  opts.variable_exists = [this](const std::string& name) {
    return variables_.count(name) > 0;
  };
  return sema::Analyze(program, opts);
}

Result<QueryResult> Evaluator::Run(const lang::Program& program) {
  return RunInternal(program, /*plan=*/nullptr, /*cache_hit=*/false,
                     /*parse_us=*/0, /*sema_us=*/0);
}

Result<QueryResult> Evaluator::RunInternal(const lang::Program& program,
                                           const CachedPlan* plan,
                                           bool cache_hit, int64_t parse_us,
                                           int64_t sema_us) {
  QueryResult result;
  governor_.Arm(limits_);
  // Tracing is on when anyone consumes the span tree this run: PROFILE,
  // the Chrome-trace export, or the flight recorder's slow-query log
  // (which retains full traces of slow or governor-tripped runs).
  const bool want_trace = profiling_ || !trace_export_path_.empty() ||
                          recorder()->WantsTrace(governor_.HasLimits());
  tracer_.set_enabled(want_trace);
  if (want_trace) tracer_.Reset();
  obs::MetricsSnapshot before;
  if (profiling_) before = metrics_.Snapshot();
  const int64_t start_us = obs::NowMicros();
  const int64_t cpu_start_us = obs::ThreadCpuMicros();
  Status run_status = Status::OK();
  obs::Span program_span(ActiveTracer(), "program",
                         obs::Span::Timing::kAlways);
  if (program_span.active()) {
    program_span.SetAttr("statements",
                         static_cast<int64_t>(program.statements.size()));
    if (plan != nullptr) {
      program_span.SetAttr("plan", cache_hit ? "cached" : "cold");
    }
  }
  // Semantic analysis: reused from the plan when the caller came through
  // the cache — a hit records neither a "parse" nor a "sema" span (the
  // skip is observable in the trace); a cold source run replays its
  // measured front-end durations as completed spans; plain Run analyzes
  // inline.
  sema::Analysis inline_analysis;
  const sema::Analysis* analysis = nullptr;
  if (plan != nullptr) {
    analysis = &plan->analysis;
    if (!cache_hit && tracer_.enabled()) {
      tracer_.AddCompleted("parse", start_us - parse_us - sema_us, parse_us);
      tracer_.AddCompleted("sema", start_us - sema_us, sema_us);
    }
  } else {
    obs::Span sema_span(ActiveTracer(), "sema", obs::Span::Timing::kAlways);
    inline_analysis = Analyze(program);
    metrics_.GetCounter("exec.frontend.semas")->Increment();
    analysis = &inline_analysis;
  }
  result.diagnostics = analysis->diagnostics;
  for (size_t i = 0; i < program.statements.size(); ++i) {
    const lang::Statement& stmt = program.statements[i];
    // A sticky trip ends the program between statements; the work done
    // so far stays in `result` (partial-result semantics). CheckNow also
    // catches deadline/cancellation between statements that never charge.
    if (!governor_.CheckNow(GovernPoint::kEval)) break;
    obs::Span stmt_span(ActiveTracer(), "statement",
                        obs::Span::Timing::kAlways);
    if (stmt_span.active()) {
      stmt_span.SetAttr("kind", StatementKindName(stmt.kind));
    }
    const sema::StatementInfo* info =
        i < analysis->statements.size() ? &analysis->statements[i] : nullptr;
    // Parameterized (prepared) plans were analyzed against the first
    // execution's literal values, so the unsatisfiability verdict — the
    // only value-dependent conclusion RunStatement acts on — must not
    // prune a replay that may have bound satisfiable values.
    if (plan != nullptr && plan->parameterized) info = nullptr;
    const std::vector<algebra::GraphPattern>* precompiled =
        plan != nullptr && i < plan->alternatives.size() &&
                !plan->alternatives[i].empty()
            ? &plan->alternatives[i]
            : nullptr;
    result.actuals.emplace_back();
    result.actuals.back().is_flwr =
        stmt.kind == lang::Statement::Kind::kFlwr;
    run_status = RunStatement(stmt, &result, info, precompiled);
    stmt_span.End();
    result.actuals.back().wall_us = stmt_span.DurationMicros();
    // A failed statement still ends the span tree and reaches the flight
    // recorder below (the record carries the error), then the Status
    // propagates to the caller as before.
    if (!run_status.ok()) break;
  }
  program_span.End();
  result.variables = variables_;
  result.limits.steps_used = governor_.steps_used();
  result.limits.peak_memory_bytes = governor_.peak_memory();
  result.limits.elapsed_ms = governor_.elapsed_ms();
  result.limits.degradations = governor_.degradations();
  if (governor_.tripped()) {
    Status trip = governor_.ToStatus();
    result.limits.tripped = true;
    result.limits.code = trip.code();
    result.limits.kind = governor_.trip_kind();
    result.limits.point = governor_.trip_point();
    result.limits.message = trip.message();
    // Pipeline/gindex trip points emit their counters at the trip site;
    // evaluator-level points are counted here.
    GovernPoint p = governor_.trip_point();
    if (p == GovernPoint::kEval || p == GovernPoint::kDatalog ||
        p == GovernPoint::kOther) {
      metrics_
          .GetCounter(std::string("governor.trip.") + GovernPointName(p))
          ->Increment();
    }
  }
  if (profiling_) {
    obs::MetricsSnapshot delta = metrics_.Snapshot().DeltaSince(before);
    result.profile_json =
        "{\"trace\":" + tracer_.ToJson() + ",\"metrics\":" + delta.ToJson() +
        "}";
    result.profile_text = "-- trace --\n" + tracer_.ToText() +
                          "-- metrics (this run) --\n" + delta.ToText();
  }

  // Flight-record the run — successes, trips, and failures alike.
  obs::QueryRecord rec;
  rec.start_us = start_us;
  rec.session = session_label_;
  rec.shape = plan != nullptr ? plan->shape : NormalizeShape(program);
  rec.shape_hash = obs::FlightRecorder::HashShape(rec.shape);
  rec.wall_us = program_span.DurationMicros();
  result.exec_us = rec.wall_us;
  rec.cpu_us = obs::ThreadCpuMicros() - cpu_start_us;
  for (const StatementActuals& a : result.actuals) {
    rec.us_retrieve += a.us_retrieve;
    rec.us_refine += a.us_refine;
    rec.us_order += a.us_order;
    rec.us_search += a.us_search;
    rec.matches += a.matches;
    rec.tasks_stolen += a.tasks_stolen;
    rec.threads = std::max(rec.threads, a.threads);
    rec.degraded |= a.refine_degraded;
  }
  rec.steps = result.limits.steps_used;
  rec.peak_memory_bytes = result.limits.peak_memory_bytes;
  rec.returned = result.returned.size();
  rec.ok = run_status.ok();
  if (!run_status.ok()) rec.error = run_status.message();
  rec.tripped = result.limits.tripped;
  if (rec.tripped) {
    rec.trip = std::string(TripKindName(result.limits.kind)) + "@" +
               GovernPointName(result.limits.point);
  }
  rec.truncated = result.limits.truncated;
  rec.degraded |= !result.limits.degradations.empty();
  recorder()->Append(std::move(rec), ActiveTracer(), result.profile_json);

  // Rewrite the Chrome-trace export with this run's spans appended.
  if (!trace_export_path_.empty() && tracer_.enabled()) {
    obs::ChromeTraceOptions topts;
    topts.default_tid = CurrentOsThreadId();
    obs::AppendChromeTraceEvents(tracer_, topts, &trace_events_);
    if (!obs::WriteChromeTraceFile(trace_export_path_, trace_events_)) {
      metrics_.GetCounter("obs.trace_export.errors")->Increment();
    }
  }

  if (!run_status.ok()) return run_status;
  return result;
}

Result<QueryResult> Evaluator::RunSource(std::string_view source) {
  const int64_t frontend_start = obs::NowMicros();
  PlanKey key;
  if (plan_cache_ == nullptr || !PlanKey::From(source, &key)) {
    // Cache off, or the text does not lex (the parser owns the error).
    GQL_ASSIGN_OR_RETURN(lang::Program program,
                         lang::Parser::ParseProgram(source));
    metrics_.GetCounter("exec.frontend.parses")->Increment();
    const int64_t parse_us = obs::NowMicros() - frontend_start;
    Result<QueryResult> run = Run(program);
    if (run.ok()) {
      // Run() timed the inline semantic analysis as part of exec_us; the
      // parse is the front-end share this path can attribute.
      run.value().front_end_us = parse_us;
    }
    return run;
  }

  std::shared_ptr<const CachedPlan> hit =
      plan_cache_->Lookup(key, plan_epoch_);
  if (hit != nullptr && DocsRegistered(hit->program)) {
    metrics_.GetCounter("plan_cache.hit")->Increment();
    const int64_t frontend_us = obs::NowMicros() - frontend_start;
    Result<QueryResult> run =
        RunInternal(hit->program, hit.get(), /*cache_hit=*/true, 0, 0);
    if (run.ok()) {
      run.value().front_end_us = frontend_us;
      run.value().plan_source = "hit";
    }
    return run;
  }
  metrics_.GetCounter("plan_cache.miss")->Increment();

  // Cold: run the front-end once and keep what it produced.
  auto plan = std::make_shared<CachedPlan>();
  int64_t parse_us = 0;
  int64_t sema_us = 0;
  {
    const int64_t t0 = obs::NowMicros();
    GQL_ASSIGN_OR_RETURN(plan->program, lang::Parser::ParseProgram(source));
    parse_us = obs::NowMicros() - t0;
  }
  metrics_.GetCounter("exec.frontend.parses")->Increment();
  {
    const int64_t t0 = obs::NowMicros();
    plan->analysis = Analyze(plan->program);
    sema_us = obs::NowMicros() - t0;
  }
  metrics_.GetCounter("exec.frontend.semas")->Increment();
  plan->shape = NormalizeShape(plan->program);

  bool cacheable = CompileAlternatives(plan.get());
  if (cacheable) {
    plan->bytes = CachedPlan::EstimateBytes(key, *plan);
    size_t evicted = plan_cache_->Insert(key, plan_epoch_, plan);
    if (evicted > 0) {
      metrics_.GetCounter("plan_cache.evict")->Increment(evicted);
    }
  } else {
    metrics_.GetCounter("plan_cache.uncacheable")->Increment();
  }

  const int64_t frontend_us = obs::NowMicros() - frontend_start;
  Result<QueryResult> run = RunInternal(plan->program, plan.get(),
                                        /*cache_hit=*/false, parse_us, sema_us);
  if (run.ok()) {
    run.value().front_end_us = frontend_us;
    run.value().plan_source = cacheable ? "miss" : "uncacheable";
  }
  return run;
}

bool Evaluator::DocsRegistered(const lang::Program& program) const {
  for (const lang::Statement& stmt : program.statements) {
    if (stmt.kind == lang::Statement::Kind::kFlwr &&
        (docs_ == nullptr || docs_->Find(stmt.flwr.doc) == nullptr)) {
      return false;
    }
  }
  return true;
}

bool Evaluator::CompileAlternatives(CachedPlan* plan) {
  // Cacheability gate: only pure programs — every statement a non-`let`
  // FLWR — may be replayed from cache. Anything that mutates session
  // state (graph-decl, assign, let) both bumps the epoch when it runs and
  // would make a cached replay observable, so such programs stay cold.
  // A program over an unregistered document fails at run time, and its
  // analysis reports the missing document, so it stays cold too.
  bool cacheable = DocsRegistered(plan->program);
  for (const lang::Statement& stmt : plan->program.statements) {
    if (stmt.kind != lang::Statement::Kind::kFlwr || stmt.flwr.is_let) {
      cacheable = false;
      break;
    }
  }
  if (cacheable) {
    // Precompile every FLWR's pattern alternatives (with the FLWR-level
    // where folded in, exactly as RunFlwr would). Any failure falls back
    // to cold execution, which reproduces the error with full context.
    plan->alternatives.resize(plan->program.statements.size());
    for (size_t i = 0; i < plan->program.statements.size() && cacheable;
         ++i) {
      const lang::FlwrExpr& flwr = plan->program.statements[i].flwr;
      const lang::GraphDecl* pattern_decl =
          flwr.pattern ? &*flwr.pattern : motifs_.Find(flwr.pattern_ref);
      if (pattern_decl == nullptr) {
        cacheable = false;
        break;
      }
      lang::GraphDecl pushed;
      if (flwr.where != nullptr) {
        pushed = *pattern_decl;
        pushed.where = pushed.where == nullptr
                           ? flwr.where
                           : lang::Expr::Binary(lang::BinaryOp::kAnd,
                                                pushed.where, flwr.where);
        pattern_decl = &pushed;
      }
      Result<std::vector<algebra::GraphPattern>> alts =
          algebra::GraphPattern::CreateAll(*pattern_decl, &motifs_,
                                           build_options_);
      if (!alts.ok()) {
        cacheable = false;
        break;
      }
      plan->alternatives[i] = std::move(alts).value();
    }
    if (!cacheable) plan->alternatives.clear();
  }
  return cacheable;
}

Result<QueryResult> Evaluator::RunPrepared(
    std::string_view template_text, std::string_view substituted,
    const std::vector<PreparedParam>& sites,
    const std::vector<Value>& params) {
  // No placeholders (or no cache) means nothing to share: the substituted
  // text IS the query, and RunSource's per-text keying is exactly right.
  if (plan_cache_ == nullptr || sites.empty()) {
    return RunSource(substituted);
  }
  const int64_t frontend_start = obs::NowMicros();
  PlanKey key;
  PlanKey::FromPrepared(template_text, ParamKindSignature(params), &key);

  std::shared_ptr<const CachedPlan> hit =
      plan_cache_->Lookup(key, plan_epoch_);
  if (hit != nullptr && DocsRegistered(hit->program)) {
    // Rebind: write this execution's values into the literal nodes the
    // parameters parsed into on the cold run. The nodes are shared into
    // the compiled pattern predicates and the per-run template
    // instantiation, so the new values flow without recompiling. (The
    // slot indices were validated against the placeholder set when the
    // entry was built; SubstituteParams already rejected executions that
    // bind fewer parameters than the template references.)
    for (const CachedPlan::ParamSlot& slot : hit->param_slots) {
      if (slot.param >= params.size()) {
        return RunSource(substituted);  // Defensive; cannot happen today.
      }
      slot.expr->literal = params[slot.param];
    }
    metrics_.GetCounter("plan_cache.hit")->Increment();
    const int64_t frontend_us = obs::NowMicros() - frontend_start;
    Result<QueryResult> run =
        RunInternal(hit->program, hit.get(), /*cache_hit=*/true, 0, 0);
    if (run.ok()) {
      run.value().front_end_us = frontend_us;
      run.value().plan_source = "hit";
    }
    return run;
  }

  // Cold: run the front-end once on the substituted text, then find the
  // literal Expr node each parameter landed on. A rendered literal's
  // token starts exactly where the substitution wrote it, so a slot is a
  // patchable literal whose span matches the recorded site and whose
  // parsed value round-trips the bound parameter (the value check rejects
  // structural mismatches, e.g. a negative number parsed as unary minus
  // over a positive literal — patching the inner literal would double the
  // sign).
  auto plan = std::make_shared<CachedPlan>();
  int64_t parse_us = 0;
  int64_t sema_us = 0;
  {
    const int64_t t0 = obs::NowMicros();
    GQL_ASSIGN_OR_RETURN(plan->program,
                         lang::Parser::ParseProgram(substituted));
    parse_us = obs::NowMicros() - t0;
  }
  metrics_.GetCounter("exec.frontend.parses")->Increment();

  std::vector<lang::Expr*> patchable = CollectPatchableLiterals(&plan->program);
  bool shareable = true;
  plan->param_slots.reserve(sites.size());
  for (const PreparedParam& site : sites) {
    lang::Expr* found = nullptr;
    for (lang::Expr* e : patchable) {
      if (e->span.line == site.line && e->span.column == site.column &&
          site.index < params.size() && e->literal == params[site.index]) {
        found = e;
        break;
      }
    }
    if (found == nullptr) {
      shareable = false;
      break;
    }
    plan->param_slots.push_back({found, site.index});
  }
  if (!shareable) {
    // At least one parameter landed somewhere the pipeline does not
    // re-read per run (pattern tuple literal, doc name, ...): this
    // execution cannot share a plan across values. Fall back to plain
    // per-value caching; the parse above is repeated, which is the cold
    // path's price, not the steady state's.
    metrics_.GetCounter("plan_cache.prepared_fallback")->Increment();
    return RunSource(substituted);
  }

  {
    const int64_t t0 = obs::NowMicros();
    plan->analysis = Analyze(plan->program);
    sema_us = obs::NowMicros() - t0;
  }
  metrics_.GetCounter("exec.frontend.semas")->Increment();
  plan->shape = NormalizeShape(plan->program);
  plan->parameterized = true;

  bool cacheable = CompileAlternatives(plan.get());
  if (cacheable) {
    plan->bytes = CachedPlan::EstimateBytes(key, *plan);
    size_t evicted = plan_cache_->Insert(key, plan_epoch_, plan);
    if (evicted > 0) {
      metrics_.GetCounter("plan_cache.evict")->Increment(evicted);
    }
    metrics_.GetCounter("plan_cache.miss")->Increment();
  } else {
    metrics_.GetCounter("plan_cache.uncacheable")->Increment();
  }

  const int64_t frontend_us = obs::NowMicros() - frontend_start;
  Result<QueryResult> run = RunInternal(plan->program, plan.get(),
                                        /*cache_hit=*/false, parse_us, sema_us);
  if (run.ok()) {
    run.value().front_end_us = frontend_us;
    run.value().plan_source = cacheable ? "miss" : "uncacheable";
  }
  return run;
}

const Graph* Evaluator::Variable(const std::string& name) const {
  auto it = variables_.find(name);
  return it == variables_.end() ? nullptr : &it->second;
}

Result<std::string> Evaluator::ExplainSource(std::string_view source) const {
  GQL_ASSIGN_OR_RETURN(lang::Program program,
                       lang::Parser::ParseProgram(source));
  return Explain(program);
}

Result<std::string> Evaluator::Explain(const lang::Program& program) const {
  return RenderExplain(program, /*actual=*/nullptr);
}

Result<std::string> Evaluator::ExplainAnalyzeSource(std::string_view source) {
  // Route through RunSource so the run exercises (and reports) the plan
  // cache; the parse here only feeds the static plan rendering.
  GQL_ASSIGN_OR_RETURN(lang::Program program,
                       lang::Parser::ParseProgram(source));
  GQL_ASSIGN_OR_RETURN(QueryResult result, RunSource(source));
  GQL_ASSIGN_OR_RETURN(std::string out, RenderExplain(program, &result));
  std::string limits = result.limits.ToString();
  if (!limits.empty()) {
    out.append("-- limits --\n");
    out.append(limits);
  }
  out.append("-- plan cache --\nplan: " + result.plan_source +
             ", front-end=");
  AppendMs(result.front_end_us, &out);
  out.append(", exec=");
  AppendMs(result.exec_us, &out);
  out.push_back('\n');
  return out;
}

Result<std::string> Evaluator::ExplainAnalyze(const lang::Program& program) {
  // Execute first (full Run semantics: state mutations, governor, flight
  // recorder), then render the plan with the measured actuals inlined.
  // Re-registering the program's motifs in the render's scratch registry
  // is a no-op overwrite of what Run just registered.
  GQL_ASSIGN_OR_RETURN(QueryResult result, Run(program));
  GQL_ASSIGN_OR_RETURN(std::string out, RenderExplain(program, &result));
  std::string limits = result.limits.ToString();
  if (!limits.empty()) {
    out.append("-- limits --\n");
    out.append(limits);
  }
  return out;
}

Result<std::string> Evaluator::RenderExplain(const lang::Program& program,
                                             const QueryResult* actual) const {
  // Motifs declared by the program are resolved against a scratch copy so
  // EXPLAIN never mutates session state.
  motif::MotifRegistry scratch = motifs_;
  sema::Analysis analysis = Analyze(program);
  std::string out;
  char buf[256];
  size_t index = 0;
  for (const lang::Statement& stmt : program.statements) {
    ++index;
    switch (stmt.kind) {
      case lang::Statement::Kind::kGraphDecl: {
        std::snprintf(buf, sizeof(buf),
                      "[%zu] graph-decl '%s': registers a motif/pattern\n",
                      index, stmt.graph.name.c_str());
        out.append(buf);
        GQL_RETURN_IF_ERROR(scratch.Register(stmt.graph));
        break;
      }
      case lang::Statement::Kind::kAssign: {
        std::snprintf(buf, sizeof(buf),
                      "[%zu] assign %s := graph template (instantiated with "
                      "the current variable bindings)\n",
                      index, stmt.assign_target.c_str());
        out.append(buf);
        break;
      }
      case lang::Statement::Kind::kFlwr: {
        const lang::FlwrExpr& flwr = stmt.flwr;
        const lang::GraphDecl* pattern_decl =
            flwr.pattern ? &*flwr.pattern : scratch.Find(flwr.pattern_ref);
        if (pattern_decl == nullptr) {
          return Status::NotFound("FLWR pattern '" + flwr.pattern_ref +
                                  "' is not declared");
        }
        lang::GraphDecl pushed;
        bool pushdown = false;
        if (flwr.where != nullptr) {
          pushed = *pattern_decl;
          pushed.where = pushed.where == nullptr
                             ? flwr.where
                             : lang::Expr::Binary(lang::BinaryOp::kAnd,
                                                  pushed.where, flwr.where);
          pattern_decl = &pushed;
          pushdown = true;
        }
        GQL_ASSIGN_OR_RETURN(
            std::vector<algebra::GraphPattern> alternatives,
            algebra::GraphPattern::CreateAll(*pattern_decl, &scratch,
                                             build_options_));
        std::snprintf(
            buf, sizeof(buf), "[%zu] for %s%s in doc(\"%s\") %s\n", index,
            alternatives.empty() ? "?" : alternatives[0].name().c_str(),
            flwr.exhaustive ? " exhaustive" : "", flwr.doc.c_str(),
            flwr.is_let ? ("let " + flwr.let_target).c_str() : "return");
        out.append(buf);
        if (pushdown) {
          out.append(
              "    where-pushdown: FLWR predicate folded into the pattern "
              "(sigma_f(sigma_P(C)) = sigma_{P and f}(C))\n");
        }
        std::snprintf(buf, sizeof(buf),
                      "    pattern alternatives (motif derivations): %zu\n",
                      alternatives.size());
        out.append(buf);
        size_t shown = 0;
        for (const algebra::GraphPattern& alt : alternatives) {
          if (++shown > 6) {
            std::snprintf(buf, sizeof(buf), "      ... (%zu more)\n",
                          alternatives.size() - 6);
            out.append(buf);
            break;
          }
          size_t node_preds = 0;
          for (size_t u = 0; u < alt.graph().NumNodes(); ++u) {
            node_preds += alt.NodePreds(static_cast<NodeId>(u)).size();
          }
          std::snprintf(buf, sizeof(buf),
                        "      alt %zu: %zu nodes, %zu edges, node-preds=%zu,"
                        " global-pred=%s\n",
                        shown, alt.graph().NumNodes(), alt.graph().NumEdges(),
                        node_preds, alt.has_global_pred() ? "yes" : "no");
          out.append(buf);
        }
        const GraphCollection* collection =
            docs_ != nullptr ? docs_->Find(flwr.doc) : nullptr;
        if (collection == nullptr) {
          std::snprintf(buf, sizeof(buf),
                        "    doc \"%s\": NOT REGISTERED (query would fail)\n",
                        flwr.doc.c_str());
          out.append(buf);
        } else {
          size_t indexed = 0;
          for (const Graph& g : *collection) {
            if (index_threshold_ != 0 && g.NumNodes() >= index_threshold_) {
              ++indexed;
            }
          }
          out.append("    doc \"" + flwr.doc +
                     "\": " + FormatSize(collection->size()) +
                     " member graphs, " + FormatSize(indexed) +
                     " at/above the auto-index threshold (" +
                     FormatSize(index_threshold_) +
                     " nodes) use the LabelIndex shared on their "
                     "snapshot\n");
        }
        const int level = match_options_.refine_level;
        char refine[160];
        if (level == match::kRefineOnDemand) {
          std::snprintf(refine, sizeof(refine),
                        "on-demand (search first; refine to pattern size "
                        "past %" PRIu64 " tries per candidate)",
                        match::kAttemptTriesPerCandidate);
        } else {
          std::snprintf(refine, sizeof(refine), "%d%s", level,
                        level < 0 ? " (= pattern size)" : "");
        }
        std::snprintf(
            buf, sizeof(buf),
            "    pipeline: retrieve=%s, refine-level=%s, order=%s, "
            "exhaustive=%s\n",
            match::CandidateModeName(match_options_.candidate_mode), refine,
            match_options_.optimize_order ? "greedy-cost" : "declaration",
            flwr.exhaustive ? "yes" : "no");
        out.append(buf);
        if (flwr.template_decl) {
          out.append("    template: inline graph template\n");
        } else if (!alternatives.empty() &&
                   flwr.template_ref == alternatives[0].name()) {
          out.append(
              "    template: the matched graph itself (return pattern)\n");
        } else {
          out.append("    template: reference '" + flwr.template_ref +
                     "'\n");
        }
        if (index - 1 < analysis.statements.size()) {
          const sema::StatementInfo& si = analysis.statements[index - 1];
          out.append(si.nr()
                         ? "    sema: nr-GraphQL (non-recursive) -- "
                           "equivalent to relational algebra (Theorem 4.5)\n"
                         : "    sema: recursive motif composition -- "
                           "requires the Datalog fixpoint (Theorem 4.6)\n");
          if (si.unsatisfiable) {
            out.append("    sema: provably unsatisfiable (" +
                       si.unsat_reason +
                       "); the selection short-circuits to empty\n");
          }
        }
        break;
      }
    }
    if (actual != nullptr) {
      if (index - 1 < actual->actuals.size()) {
        AppendActualLines(actual->actuals[index - 1], &out);
      } else {
        // The governor (or an error) ended the run before this statement.
        out.append("    actual: not executed\n");
      }
    }
  }
  return out;
}

Status Evaluator::RunStatement(
    const lang::Statement& stmt, QueryResult* result,
    const sema::StatementInfo* info,
    const std::vector<algebra::GraphPattern>* precompiled) {
  switch (stmt.kind) {
    case lang::Statement::Kind::kGraphDecl:
      ++plan_epoch_;  // Motif registration changes pattern resolution.
      return motifs_.Register(stmt.graph);
    case lang::Statement::Kind::kAssign: {
      ++plan_epoch_;  // Variable bindings feed sema and templates.
      // Instantiate the right-hand side as a parameter-free template; this
      // covers both plain graph literals and computed bodies.
      GQL_ASSIGN_OR_RETURN(algebra::GraphTemplate tmpl,
                           algebra::GraphTemplate::Create(stmt.graph));
      std::unordered_map<std::string, algebra::TemplateParam> params;
      for (const auto& [name, graph] : variables_) {
        params[name] = algebra::TemplateParam::Plain(&graph);
      }
      GQL_ASSIGN_OR_RETURN(Graph g, tmpl.Instantiate(params));
      g.set_name(stmt.assign_target);
      variables_[stmt.assign_target] = std::move(g);
      return Status::OK();
    }
    case lang::Statement::Kind::kFlwr:
      if (stmt.flwr.is_let) ++plan_epoch_;  // `let` binds a variable.
      return RunFlwr(stmt.flwr, result, info != nullptr && info->unsatisfiable,
                     precompiled);
  }
  return Status::Internal("unhandled statement kind");
}

Result<std::vector<algebra::MatchedGraph>> Evaluator::SelectWithAutoIndex(
    const std::vector<algebra::GraphPattern>& alternatives,
    const GraphCollection& collection, const match::PipelineOptions& options,
    match::PipelineStats* stats) {
  std::vector<algebra::MatchedGraph> out;
  for (const Graph& g : collection) {
    // A tripped governor ends the scan with the matches found so far.
    if (!GovOk(options.governor)) break;
    std::shared_ptr<const match::LabelIndex> index;
    if (index_threshold_ != 0 && g.NumNodes() >= index_threshold_) {
      // Only the call that builds the index records the span.
      const int64_t start_us = obs::NowMicros();
      bool built = false;
      index = match::LabelIndex::Shared(
          g, options.candidate_mode == match::CandidateMode::kNeighborhood,
          &built);
      if (built) {
        ++indexes_built_;
        obs::TraceNode* span =
            options.tracer == nullptr
                ? nullptr
                : options.tracer->AddCompleted("index-build", start_us,
                                               obs::NowMicros() - start_us);
        if (span != nullptr) {
          span->SetAttr("nodes", static_cast<int64_t>(g.NumNodes()));
        }
      }
      if (options.metrics != nullptr) {
        options.metrics
            ->GetCounter(built ? "exec.index.builds" : "exec.index.cache_hits")
            ->Increment();
      }
    }
    for (const algebra::GraphPattern& pattern : alternatives) {
      GQL_ASSIGN_OR_RETURN(
          std::vector<algebra::MatchedGraph> matches,
          match::MatchPattern(pattern, g, index.get(), options, stats));
      if (!matches.empty()) {
        for (algebra::MatchedGraph& m : matches) out.push_back(std::move(m));
        if (!options.match.exhaustive) break;  // One binding per graph.
      }
    }
  }
  return out;
}

Status Evaluator::RunFlwr(
    const lang::FlwrExpr& flwr, QueryResult* result, bool prune_unsat,
    const std::vector<algebra::GraphPattern>* precompiled) {
  obs::Span flwr_span(ActiveTracer(), "flwr");
  // Pattern alternatives: reused from the cached plan when available
  // (where-pushdown already folded at compile), otherwise resolved and
  // compiled here.
  std::vector<algebra::GraphPattern> compiled_here;
  const std::vector<algebra::GraphPattern>* alternatives_ptr = precompiled;
  if (alternatives_ptr == nullptr) {
    // Resolve the pattern.
    const lang::GraphDecl* pattern_decl = nullptr;
    if (flwr.pattern) {
      pattern_decl = &*flwr.pattern;
    } else {
      pattern_decl = motifs_.Find(flwr.pattern_ref);
      if (pattern_decl == nullptr) {
        return Status::NotFound("FLWR pattern '" + flwr.pattern_ref +
                                "' is not declared");
      }
    }
    // Algebraic pushdown: sigma_f(sigma_P(C)) = sigma_{P AND f}(C).
    // Folding the FLWR-level where into the pattern predicate lets its
    // single-node conjuncts prune candidate sets instead of filtering
    // whole matches.
    lang::GraphDecl pushed;
    if (flwr.where != nullptr) {
      pushed = *pattern_decl;
      pushed.where = pushed.where == nullptr
                         ? flwr.where
                         : lang::Expr::Binary(lang::BinaryOp::kAnd,
                                              pushed.where, flwr.where);
      pattern_decl = &pushed;
    }
    GQL_ASSIGN_OR_RETURN(
        compiled_here,
        algebra::GraphPattern::CreateAll(*pattern_decl, &motifs_,
                                         build_options_));
    alternatives_ptr = &compiled_here;
  }
  const std::vector<algebra::GraphPattern>& alternatives = *alternatives_ptr;
  if (alternatives.empty()) {
    return Status::InvalidArgument("FLWR pattern derives no motifs");
  }
  const std::string pattern_name = alternatives[0].name();

  // Resolve the data source.
  const GraphCollection* collection =
      docs_ != nullptr ? docs_->Find(flwr.doc) : nullptr;
  if (collection == nullptr) {
    return Status::NotFound("document '" + flwr.doc + "' is not registered");
  }

  // Resolve the template.
  std::optional<algebra::GraphTemplate> tmpl;
  bool template_is_pattern_ref = false;
  if (flwr.template_decl) {
    GQL_ASSIGN_OR_RETURN(algebra::GraphTemplate t,
                         algebra::GraphTemplate::Create(*flwr.template_decl));
    tmpl = std::move(t);
  } else if (flwr.template_ref == pattern_name) {
    template_is_pattern_ref = true;  // `return P`: the matched graph itself.
  } else {
    return Status::NotFound("FLWR template '" + flwr.template_ref +
                            "' is neither inline nor the pattern name");
  }

  if (flwr_span.active()) {
    flwr_span.SetAttr("pattern", pattern_name);
    flwr_span.SetAttr("doc", flwr.doc);
    flwr_span.SetAttr("alternatives",
                      static_cast<int64_t>(alternatives.size()));
    flwr_span.SetAttr("members", static_cast<int64_t>(collection->size()));
  }

  // Semantic analysis proved the selection empty (contradictory
  // constraints or a constant-false predicate): short-circuit without
  // entering the match pipeline. Resolution errors above still fire, and a
  // `let` target is bound exactly as a zero-match execution would bind it.
  if (prune_unsat) {
    metrics_.GetCounter("sema.pruned.unsat")->Increment();
    if (flwr_span.active()) flwr_span.SetAttr("sema", "pruned-unsat");
    if (flwr.is_let) {
      auto it = variables_.find(flwr.let_target);
      if (it == variables_.end()) {
        Graph empty;
        empty.set_name(flwr.let_target);
        variables_[flwr.let_target] = std::move(empty);
      }
    }
    return Status::OK();
  }

  // Select.
  match::PipelineOptions options = match_options_;
  options.match.exhaustive = flwr.exhaustive;
  if (options.governor == nullptr) options.governor = &governor_;
  // Route observability to this session: metrics into the Evaluator's
  // registry (unless already redirected away from the global default) and
  // traces into the profiling tracer when PROFILE is on.
  if (options.metrics == &obs::MetricsRegistry::Global()) {
    options.metrics = &metrics_;
  }
  if (ActiveTracer() != nullptr) options.tracer = ActiveTracer();
  obs::Span select_span(ActiveTracer(), "select");
  match::PipelineStats select_stats;
  GQL_ASSIGN_OR_RETURN(std::vector<algebra::MatchedGraph> matches,
                       SelectWithAutoIndex(alternatives, *collection, options,
                                           &select_stats));
  // Surface cap outcomes that used to die inside the pipeline.
  result->limits.truncated |= select_stats.search.truncated;
  if (select_span.active()) {
    select_span.SetAttr("matches", static_cast<int64_t>(matches.size()));
  }
  select_span.End();
  if (options.metrics != nullptr) {
    options.metrics->GetCounter("exec.select.matches")
        ->Increment(matches.size());
  }
  if (!result->actuals.empty()) {
    StatementActuals& a = result->actuals.back();
    a.is_flwr = true;
    a.us_retrieve = select_stats.us_retrieve;
    a.us_refine = select_stats.us_refine;
    a.us_order = select_stats.us_order;
    a.us_search = select_stats.us_search;
    a.members = select_stats.members;
    a.candidates_attr = select_stats.sum_candidates_attr;
    a.candidates_retrieved = select_stats.sum_candidates_retrieved;
    a.candidates_refined = select_stats.sum_candidates_refined;
    a.est_cost = select_stats.est_cost;
    a.steps = select_stats.search.steps;
    a.edge_checks = select_stats.search.edge_checks;
    a.backtracks = select_stats.search.backtracks;
    a.pred_rejects = select_stats.search.pred_rejects;
    a.matches = matches.size();
    a.threads = select_stats.threads;
    a.tasks_stolen = select_stats.tasks_stolen;
    a.refine_degraded = select_stats.refine_degraded;
    a.members_refined = select_stats.members_refined;
    a.attempts = select_stats.attempts;
    a.attempt_tries = select_stats.attempt_tries;
    a.attempt_budget = select_stats.attempt_budget;
    a.snapshot_probes = select_stats.search.csr_edge_probes;
  }

  // The `let` accumulator starts from the variable's current value (or an
  // empty graph when unbound).
  Graph accumulator;
  if (flwr.is_let) {
    auto it = variables_.find(flwr.let_target);
    if (it != variables_.end()) {
      accumulator = it->second;
    } else {
      accumulator.set_name(flwr.let_target);
    }
  }

  obs::Span inst_span(ActiveTracer(), "instantiate");
  for (const algebra::MatchedGraph& m : matches) {
    // Instantiation is governed too: a trip keeps the graphs built so far.
    if (!GovCharge(&governor_, 1, GovernPoint::kEval)) break;
    // (The FLWR-level where was folded into the pattern predicate above.)
    if (template_is_pattern_ref) {
      result->returned.Add(m.Materialize());
      continue;
    }

    std::unordered_map<std::string, algebra::TemplateParam> params;
    for (const auto& [name, graph] : variables_) {
      params[name] = algebra::TemplateParam::Plain(&graph);
    }
    if (flwr.is_let) {
      // The accumulator shadows any same-named variable.
      params[flwr.let_target] = algebra::TemplateParam::Plain(&accumulator);
    }
    params[pattern_name] = algebra::TemplateParam::Matched(&m);

    GQL_ASSIGN_OR_RETURN(Graph g, tmpl->Instantiate(params));
    if (flwr.is_let) {
      g.set_name(flwr.let_target);
      accumulator = std::move(g);
    } else {
      result->returned.Add(std::move(g));
    }
  }

  if (inst_span.active()) {
    inst_span.SetAttr("instantiations", static_cast<int64_t>(matches.size()));
  }
  inst_span.End();

  if (flwr.is_let) {
    variables_[flwr.let_target] = std::move(accumulator);
  }
  return Status::OK();
}

}  // namespace graphql::exec
