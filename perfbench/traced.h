// In-memory span log of the traced replay.
#ifndef GQL_PERFBENCH_TRACED_H_
#define GQL_PERFBENCH_TRACED_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace gqlbench {

using graphql::Status;

/// One recorded call: name, start/end (micros since the log's epoch), the
/// span that caused it (-1 for a request root) and the request id.
struct Span {
  std::string name;
  double start_us = 0;
  double end_us = -1;
  int parent = -1;
  uint64_t request = 0;
  /// Where the next synthetic child of this span starts.
  double cursor_us = 0;
};

/// Spans are kept in memory and written once, when the benchmark ends.
class SpanLog {
 public:
  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

  /// Opens a span timed by the log's clock; close it with End().
  int Begin(const std::string& name, int parent, uint64_t request);
  void End(int id);
  /// Adds an already-measured child of the closed span `parent`, placed
  /// after the parent's previous synthetic child and clipped to the
  /// parent's interval.
  int AddChild(const std::string& name, int parent, double dur_us);
  /// Appends a span as given (tests).
  void AddRaw(Span s) { spans_.push_back(std::move(s)); }

  double Duration(int id) const {
    const Span& s = spans_[static_cast<size_t>(id)];
    return s.end_us - s.start_us;
  }
  std::vector<double> DurationsOf(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.end_us - s.start_us);
    }
    return out;
  }
  /// Each span's duration minus its children's.
  std::vector<double> SelfTimes() const;
  /// Empty when every span lies inside its parent, shares its parent's
  /// request id, and no self time is negative; otherwise the first
  /// violation.
  std::string CheckNesting() const;
  /// Chrome trace (obs::WriteChromeTraceFile) of requests < max_requests.
  Status WriteChromeTrace(const std::string& path, size_t max_requests) const;

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double Now() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// The layer a span belongs to: its name up to the first dot ("" for the
/// request root).
std::string LayerOf(const std::string& span_name);

}  // namespace gqlbench

#endif  // GQL_PERFBENCH_TRACED_H_
