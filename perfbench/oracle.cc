// The answer oracle: a serial exec::Evaluator over the documents gqld
// serves, rendering bodies the way the server session does.
#include <algorithm>
#include <sstream>
#include <string_view>

#include "bench.h"
#include "io/serialize.h"
#include "sema/diagnostic.h"

namespace gqlbench {

namespace {

/// gqld renders at most this many returned graphs per response
/// (server/session.cc); the count line always reports the true total.
constexpr size_t kMaxRenderedGraphs = 100;

}  // namespace

bool IsGoverned(StatusCode code) {
  return code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kCancelled ||
         code == StatusCode::kResourceExhausted;
}

std::string RenderBody(const std::string& text, const exec::QueryResult& r) {
  std::string body;
  for (const sema::Diagnostic& d : r.diagnostics) {
    body += sema::RenderDiagnostic(text, d);
    body += "\n";
  }
  for (const auto& [name, graph] : r.variables) {
    body += "bound " + name + ": " + std::to_string(graph.NumNodes()) +
            " nodes, " + std::to_string(graph.NumEdges()) + " edges\n";
  }
  if (r.returned.size() > 0) {
    body += "returned " + std::to_string(r.returned.size()) + " graphs:\n";
    size_t shown = 0;
    for (const Graph& g : r.returned) {
      body += io::WriteGraphText(g);
      body += "\n";
      if (++shown >= kMaxRenderedGraphs &&
          r.returned.size() > kMaxRenderedGraphs) {
        body += "... (" + std::to_string(r.returned.size() - shown) +
                " more)\n";
        break;
      }
    }
  }
  body += r.limits.ToString();
  return body;
}

std::string NormalizeBody(const std::string& body) {
  std::string out;
  out.reserve(body.size());
  size_t pos = 0;
  while (pos < body.size()) {
    size_t end = body.find('\n', pos);
    size_t next = end == std::string::npos ? body.size() : end + 1;
    if (body.compare(pos, 10, "consumed: ") != 0) {
      out.append(body, pos, next - pos);
    }
    pos = next;
  }
  return out;
}

Oracle::Oracle(
    const std::map<std::string, std::shared_ptr<const GraphCollection>>& docs) {
  for (const auto& [name, c] : docs) registry_.RegisterShared(name, c);
  evaluator_ = std::make_unique<exec::Evaluator>(&registry_);
  evaluator_->mutable_match_options()->num_threads = 0;  // Serial path.
  // The oracle's own plan cache would only add a second code path to
  // trust; every answer is computed cold.
  evaluator_->set_plan_cache_capacity(0);
  evaluator_->recorder()->set_enabled(false);
}

void Oracle::set_limits(const GovernorLimits& limits) {
  evaluator_->set_limits(limits);
}

Expected Oracle::Run(const std::string& text) {
  Expected want;
  auto result = evaluator_->RunSource(text);
  if (!result.ok()) {
    want.code = result.status().code();
    want.body = result.status().ToString();
    return want;
  }
  if (result->limits.tripped) want.code = result->limits.code;
  want.steps = result->limits.steps_used;
  want.body = NormalizeBody(RenderBody(text, *result));
  std::vector<std::string> rendered;
  SplitBody(want.body, &want.head, &rendered);
  for (const Graph& g : result->returned) {
    want.graphs.push_back(io::WriteGraphText(g));
  }
  return want;
}

void SplitBody(const std::string& body, std::string* head,
               std::vector<std::string>* graphs) {
  head->clear();
  graphs->clear();
  std::string* block = nullptr;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t end = body.find('\n', pos);
    size_t next = end == std::string::npos ? body.size() : end + 1;
    std::string_view line(body.data() + pos, next - pos);
    if (block == nullptr && line.substr(0, 6) == "graph ") {
      graphs->emplace_back();
      block = &graphs->back();
    }
    if (block != nullptr) {
      block->append(line);
      // io::WriteGraphText ends a graph with a line holding only "}".
      if (line == "}\n" || line == "}") {
        if (!block->empty() && block->back() == '\n') block->pop_back();
        block = nullptr;
      }
    } else {
      head->append(line);
    }
    pos = next;
  }
}

Verdict Check(const Expected& want, const server::Response& got) {
  if (want.code != got.code) return Verdict::kWrong;
  if (IsGoverned(want.code)) return Verdict::kExact;
  if (want.code != StatusCode::kOk) {
    return got.body == want.body ? Verdict::kExact : Verdict::kWrong;
  }
  const std::string body = NormalizeBody(got.body);
  if (body == want.body) return Verdict::kExact;
  std::string head;
  std::vector<std::string> graphs;
  SplitBody(body, &head, &graphs);
  const size_t rendered = std::min(want.graphs.size(), kMaxRenderedGraphs);
  if (head != want.head || graphs.size() != rendered) return Verdict::kWrong;
  std::vector<std::string> all = want.graphs;
  std::sort(all.begin(), all.end());
  std::sort(graphs.begin(), graphs.end());
  if (!std::includes(all.begin(), all.end(), graphs.begin(), graphs.end())) {
    return Verdict::kWrong;
  }
  return Verdict::kReordered;
}

}  // namespace gqlbench
