// Shared declarations of gqlbench (see perfbench/README.md).
//
// gqlbench generates a workload's documents and request streams from one
// seed, starts the real gqld binary on them, drives closed-loop client
// connections over loopback with server::Client, checks every response
// against an in-process serial evaluator (the oracle), and prints the
// end-to-end metrics. With --trace 1 it instead runs a short untraced
// server pass plus a traced in-process replay of the same request stream
// and prints the per-layer breakdown.
#ifndef GQL_PERFBENCH_BENCH_H_
#define GQL_PERFBENCH_BENCH_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "exec/evaluator.h"
#include "graph/collection.h"
#include "server/protocol.h"

namespace gqlbench {

using namespace graphql;

// ---------------------------------------------------------------- stats

/// Tail-percentile rule: p99 when at least 1,000 samples exist, otherwise
/// the highest percentile of the ladder 99/95/90/75/50 that leaves at
/// least 10 samples beyond it (0 when even p50 cannot).
int TailPercentile(size_t samples);
/// Samples strictly beyond the `pct` percentile of `samples` values.
size_t SamplesBeyond(size_t samples, int pct);
/// Nearest-rank percentile of `v` (sorted in place); 0 for an empty vector.
double Percentile(std::vector<double>* v, double pct);
double Median(std::vector<double> v);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
  std::string note;
};

std::string JsonEscape(const std::string& s);
/// Shortest round-tripping decimal rendering of `v`.
std::string Num(double v);

// ---------------------------------------------------------------- oracle

/// What a correct response to one read looks like.
struct Expected {
  StatusCode code = StatusCode::kOk;
  /// NormalizeBody() of the body the oracle would send.
  std::string body;
  /// The body without its graph blocks (diagnostics, counts, limits).
  std::string head;
  /// Text of every returned graph, in the oracle's order (all of them,
  /// not only the rendered ones).
  std::vector<std::string> graphs;
  /// Governor steps the oracle's serial run consumed.
  uint64_t steps = 0;
};

/// How a response compares with the oracle's answer.
enum class Verdict {
  kWrong,
  kExact,
  /// The same answer with the returned graphs in another order. The
  /// engine promises serial order from its parallel stages; this counts
  /// where that promise breaks without counting the answer as wrong.
  kReordered,
};

/// Renders a query result exactly as gqld's session renders a response
/// body (diagnostics, bound variables, returned graphs, limit report).
std::string RenderBody(const std::string& text, const exec::QueryResult& r);
/// Drops the run-dependent "consumed: steps=..., elapsed=..." line of a
/// limit report; everything else in a body must match byte for byte.
std::string NormalizeBody(const std::string& body);

/// In-process serial evaluator over the same documents gqld serves, with
/// the same limits. Expected answers are computed once per distinct
/// request before any timing starts.
class Oracle {
 public:
  explicit Oracle(const std::map<std::string,
                                 std::shared_ptr<const GraphCollection>>& docs);
  void set_limits(const GovernorLimits& limits);
  /// Runs `text` serially and returns its expected response.
  Expected Run(const std::string& text);
  exec::Evaluator* evaluator() { return evaluator_.get(); }

 private:
  exec::DocumentRegistry registry_;
  std::unique_ptr<exec::Evaluator> evaluator_;
};

/// A shed or governor-trip status (kDeadlineExceeded, kCancelled,
/// kResourceExhausted).
bool IsGoverned(StatusCode code);

/// Checks one response against the expected one. Governed trips are
/// compared by status code only (their partial results may differ).
/// Otherwise everything but the graph blocks must match byte for byte,
/// and the rendered graphs must be the oracle's graphs: all of them when
/// gqld renders all, else a subset of the right size.
Verdict Check(const Expected& want, const server::Response& got);
inline bool Matches(const Expected& want, const server::Response& got) {
  return Check(want, got) != Verdict::kWrong;
}
/// Splits a body into its head and its graph blocks.
void SplitBody(const std::string& body, std::string* head,
               std::vector<std::string>* graphs);

// ---------------------------------------------------------------- workloads

/// One client operation: a read (one request, checked against the oracle)
/// or a write (load_text of one new paper graph, then its publish).
struct Op {
  bool write = false;
  std::vector<server::Request> requests;
  /// Read: key into Workload::expected.
  std::string key;
  /// Write: the published doc.
  std::string doc;
};

struct Workload {
  std::string name;
  int connections = 1;
  /// gqld start-up: in-memory docs to --load, or a prepared data dir.
  std::vector<std::pair<std::string, std::string>> preload;  // NAME, path
  std::string data_dir;  ///< Prepared durable dir (copied per start).
  /// The documents gqld serves, as the oracle sees them.
  std::map<std::string, std::shared_ptr<const GraphCollection>> docs;
  /// Requests every connection sends before its first op (set/prepare);
  /// each must answer kOk.
  std::vector<server::Request> prelude;
  /// Session limits mirrored into the oracle.
  GovernorLimits limits;
  int threads = 0;  ///< `set threads` of the served sessions.
  /// Expected answer per read key.
  std::unordered_map<std::string, Expected> expected;
  /// Deterministic op stream of connection `conn`: op number `i`.
  std::function<Op(int conn, uint64_t i)> next_op;
  /// Read keys by request class ("prepared", "adhoc", ...) for per-class
  /// breakdowns.
  std::function<std::string(const Op&)> op_class;
  /// The extracted query patterns and the single-graph doc they match
  /// (parallel-vs-serial search comparison in the traced pass).
  std::vector<Graph> patterns;
  std::string pattern_doc;
  /// Seeded knobs recorded in the provenance stamp.
  std::vector<std::pair<std::string, std::string>> knobs;
};

/// Builds workload `name` from `seed`, writing its input files under
/// `dir`. Expected answers are computed here (untimed).
Result<std::unique_ptr<Workload>> MakeWorkload(const std::string& name,
                                               uint64_t seed,
                                               const std::string& dir);
const std::vector<std::string>& WorkloadNames();

/// gqlbench confines itself, and every gqld it starts, to this many CPUs:
/// the highest-numbered ones it may run on. Every workload keeps at most
/// this many threads busy (two client/session pairs, or one session with
/// `set threads` at this count), so both CPUs stay busy, a wake-up seldom
/// has to rouse an idle virtual CPU, and the measured loop depends far
/// less on how loaded the rest of a shared host is (perfbench/README.md,
/// Host noise).
constexpr int kBenchCpus = 2;

/// Restricts the calling process (and the threads and children it
/// creates afterwards) to the last `n` CPUs of its affinity mask, or to
/// all of them when it has fewer. Returns the CPU list, e.g. "2,3", or ""
/// when the mask could not be read or set.
std::string PinToLastCpus(int n);

/// The step budget match_search sessions run under (`set max_steps`);
/// also recorded in BENCHMARK.json's workload note. Kept queries cost
/// 0.1M-1M steps serially, but the parallel path searches some of them
/// with far more (36.8M for one query at seed 4 with 4 workers); the
/// budget leaves room for those, so a trip is a failure worth reporting.
constexpr uint64_t kSearchStepBudget = 200'000'000;
/// Budget of each run in the traced pass's capped serial-vs-parallel
/// comparison, where the parallel path can search thousands of times more
/// steps.
constexpr uint64_t kCappedCompareSteps = 20'000'000;
/// match_search keeps only queries whose search, as the benchmark's own
/// reference model of the paper's search counts it, tries this many
/// candidates (a fixed cost class that depends on the seed alone, so every
/// seed's query set costs about the same and every build replays the same
/// queries).
constexpr uint64_t kSearchMinSteps = 4'000'000;
constexpr uint64_t kSearchMaxSteps = 8'000'000;

/// Renders a graph as a GraphQL pattern declaration body (nodes with their
/// label, edges by endpoint names).
std::string PatternText(const Graph& g);

/// Size of a collection in the v2 binary format.
uint64_t V2Bytes(const GraphCollection& c);
/// Bytes of the regular files under `dir`.
uint64_t DirBytes(const std::string& dir);

// ---------------------------------------------------------------- server

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string gqld;
  std::string workdir;
  std::string trace_file;  ///< Chrome trace of the traced pass ("" = none).
};

/// A running gqld child process (killed and reaped on destruction).
class Gqld {
 public:
  Gqld() = default;
  ~Gqld();
  Gqld(const Gqld&) = delete;
  Gqld& operator=(const Gqld&) = delete;

  Status Start(const std::string& binary, const std::vector<std::string>& args,
               const std::string& log_path);
  /// SIGTERM, then wait (graceful drain + shutdown checkpoint).
  Status Stop();
  int port() const { return port_; }
  /// VmHWM of the process in MB; 0 when unreadable.
  double PeakRssMb() const;

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

/// The measured loop is cut into this many equal windows; end-to-end
/// timings are medians over them.
constexpr size_t kWindows = 5;
/// Unmeasured closed-loop time before the measured window starts.
constexpr double kWarmupSeconds = 1.0;

/// Everything an untraced server pass measured.
struct ServerRun {
  std::vector<double> setup_s;
  std::vector<double> read_us;
  std::vector<double> write_us;
  std::map<std::string, std::vector<double>> read_us_by_class;
  /// Read latencies and answered ops per window of the measured loop.
  std::vector<std::vector<double>> window_reads;
  std::vector<uint64_t> window_ops;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  uint64_t reordered = 0;  ///< Verdict::kReordered answers.
  uint64_t ops = 0;
  double elapsed_s = 0;
  /// Share of the host's CPU time stolen by the hypervisor during the
  /// measured loop (context for comparing runs on a shared host).
  double host_steal_frac = 0;
  double peak_rss_mb = 0;
  double disk_bytes = 0;
  double live_user_bytes = 0;
  std::string first_error;
};

/// Starts gqld `starts` times (setup_s samples), keeps the last instance
/// and drives the closed loop for `seconds`.
Result<ServerRun> RunServer(const Args& args, Workload* w, int starts,
                            double seconds);

/// Traced in-process replay; appends per-layer metrics.
Status RunTraced(const Args& args, Workload* w, const ServerRun& untraced,
                 double seconds, std::vector<Metric>* out);

/// Benchmark self-tests (tail rule, oracle rejection, span nesting) and a
/// short smoke run of every workload. Returns a process exit code.
int RunSelfTests(const Args& args);

/// Build/host provenance as a JSON object.
std::string ProvenanceJson(const Workload& w, const ServerRun& run,
                           int tail_pct);

}  // namespace gqlbench

#endif  // GQL_PERFBENCH_BENCH_H_
