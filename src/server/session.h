#ifndef GRAPHQL_SERVER_SESSION_H_
#define GRAPHQL_SERVER_SESSION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/governor.h"
#include "exec/evaluator.h"
#include "exec/registry.h"
#include "obs/recorder.h"
#include "server/admission.h"
#include "server/protocol.h"
#include "server/store.h"

namespace graphql::server {

/// Cross-session counters the server aggregates (all relaxed atomics; the
/// stats op renders them).
struct ServerCounters {
  std::atomic<uint64_t> connections{0};
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> shed_queries{0};
  std::atomic<uint64_t> shed_connections{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> disconnect_cancels{0};
  std::atomic<uint64_t> injected_accept_faults{0};
  std::atomic<uint64_t> injected_frame_faults{0};
};

/// Everything a session borrows from the server. All pointers outlive
/// every session.
struct SessionContext {
  GraphStore* store = nullptr;
  AdmissionController* admission = nullptr;
  /// Shared process-wide flight recorder (sessions stamp their label into
  /// every record). May be null (sessions then keep private recorders).
  obs::FlightRecorder* recorder = nullptr;
  ServerCounters* counters = nullptr;
  /// Starting limits for new sessions (overridable via the set op).
  GovernorLimits default_limits;
  /// Server-wide cap on the per-query deadline: a session may set any
  /// timeout up to this; 0/unlimited sessions inherit the cap itself.
  /// 0 = no cap.
  int64_t max_timeout_ms = 0;
  /// When set, new queries are refused with a drain notice (the SIGTERM
  /// path); cheap ops (ping, stats, set, close) still work.
  const std::atomic<bool>* draining = nullptr;
};

/// One client connection's state machine: the session-owned evaluator
/// (graph variables and motifs persist across requests), session-local
/// named collections, prepared parameterized queries, and resource
/// limits. Handle() is the transport-free core — the TCP server calls it
/// with decoded frames; tests call it directly.
///
/// Every query runs against a registry view rebuilt from one pinned
/// GraphStore snapshot (snapshot-isolation reads; see store.h) merged
/// with the session-local docs, which shadow shared docs of the same
/// name. Admission is checked per query: a saturated gate yields a
/// kResourceExhausted response carrying retry_after_ms instead of
/// queueing.
class Session {
 public:
  Session(uint64_t id, const SessionContext& ctx);

  /// Handles one request; never throws, never crashes on hostile input —
  /// semantic errors come back as structured error responses.
  Response Handle(const Request& req);

  uint64_t id() const { return id_; }
  /// "s<id>", the label stamped into flight records.
  const std::string& label() const { return label_; }
  /// True once a close op was handled; the server then ends the
  /// connection after writing the response.
  bool closed() const { return closed_; }

  /// The session's governor — safe to Cancel() from any thread (the
  /// disconnect watchdog; a pre-query Cancel is discarded by Arm()).
  ResourceGovernor* governor() { return evaluator_.governor(); }

  /// Test access to the session evaluator.
  exec::Evaluator* evaluator() { return &evaluator_; }

 private:
  /// A prepared execution's identity, threaded from HandleExecute through
  /// RunQuery to Evaluator::RunPrepared: the template text (placeholders
  /// intact — the shared plan-cache key), where each rendered parameter
  /// landed in the substituted text, and the bound values.
  struct PreparedRun {
    const std::string* template_text;
    const std::vector<exec::PreparedParam>* sites;
    const std::vector<Value>* params;
  };

  Response RunQueryText(const std::string& text);
  /// The shared query path (admission, snapshot pinning, registry
  /// rebuild, response rendering). `prep` non-null routes evaluation
  /// through the prepared-statement plan cache.
  Response RunQuery(const std::string& text, const PreparedRun* prep);
  Response HandleSet(const std::string& spec);
  Response HandlePrepare(const std::string& name, const std::string& text);
  Response HandleExecute(const Request& req);
  Response HandleLoadText(const std::string& name, const std::string& text);
  Response HandlePublish(const std::string& doc, const std::string& var);
  Response HandleStats();
  Response HandleRecent(uint32_t n);
  std::string RenderLimitsLine() const;
  bool Draining() const {
    return ctx_.draining != nullptr &&
           ctx_.draining->load(std::memory_order_relaxed);
  }

  const uint64_t id_;
  const std::string label_;
  SessionContext ctx_;
  /// Per-query registry view: rebuilt from the pinned store snapshot +
  /// local docs before every run. Declared before evaluator_ (which
  /// captures its address).
  exec::DocumentRegistry view_;
  exec::Evaluator evaluator_;
  std::map<std::string, std::shared_ptr<const GraphCollection>> local_docs_;
  std::map<std::string, std::string> prepared_;
  GovernorLimits limits_;
  bool closed_ = false;
};

/// Substitutes $1..$9 placeholders in `text` with GraphQL literals
/// rendered from `params` (strings escaped). Placeholders inside string
/// literals and comments are left alone. kInvalidArgument when a
/// placeholder's parameter is missing. Exposed for tests.
Result<std::string> SubstituteParams(const std::string& text,
                                     const std::vector<Value>& params);

/// As above, and records into `sites` (when non-null) the 1-based
/// line/column in the OUTPUT text where each rendered literal begins plus
/// the 0-based parameter it came from — the hand-off that lets the
/// evaluator find (and later rebind) the literal Expr node each parameter
/// parsed into. Sites are recorded in placeholder order of appearance.
Result<std::string> SubstituteParams(const std::string& text,
                                     const std::vector<Value>& params,
                                     std::vector<exec::PreparedParam>* sites);

}  // namespace graphql::server

#endif  // GRAPHQL_SERVER_SESSION_H_
