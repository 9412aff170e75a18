#ifndef GRAPHQL_COMMON_GOVERNOR_H_
#define GRAPHQL_COMMON_GOVERNOR_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace graphql {

/// Why a governed query was stopped.
enum class TripKind {
  kNone = 0,
  kDeadline,   ///< Wall-clock deadline passed.
  kCancelled,  ///< Cancel() was called (another thread / signal handler).
  kSteps,      ///< The unified step budget ran out.
  kMemory,     ///< The approximate memory budget ran out.
};
const char* TripKindName(TripKind kind);

/// Where in the engine a governor check fired. Used both for reporting
/// ("what tripped") and as the FaultInjector's addressing scheme.
enum class GovernPoint {
  kSearch = 0,    ///< Matcher DFS (Algorithm 4.1 search).
  kRefine,        ///< Global refinement (Algorithm 4.2).
  kRetrieve,      ///< Feasible-mate retrieval.
  kNeighborhood,  ///< Neighborhood sub-isomorphism tests.
  kDatalog,       ///< Datalog fixpoint evaluation.
  kGindex,        ///< Collection-index filter+verify.
  kEval,          ///< FLWR evaluator (statements, instantiation).
  // Server-side points (src/server/). These never fire from the engine's
  // governor checks; the query server charges them directly against the
  // fault injector to make connection/commit failures deterministic.
  kAccept,        ///< gqld accept loop: the N-th accepted connection fails.
  kFrameRead,     ///< Wire framing: the N-th request frame read fails.
  kCommit,        ///< GraphStore commit: the N-th commit aborts.
  kWalAppend,     ///< Durable store: the N-th WAL append tears mid-record.
  kCheckpoint,    ///< Durable store: the N-th checkpoint aborts mid-write.
  kOther,
};
inline constexpr int kNumGovernPoints = static_cast<int>(GovernPoint::kOther) + 1;
const char* GovernPointName(GovernPoint point);

/// Per-query resource limits; 0 = unlimited throughout. This is the
/// engine's only step budget.
struct GovernorLimits {
  /// Wall-clock deadline, measured from Arm().
  int64_t timeout_ms = 0;
  /// Unified step budget covering search steps, refinement pair checks,
  /// retrieval probes, neighborhood DFS steps, and datalog unifications.
  uint64_t max_steps = 0;
  /// Approximate budget for the big transient structures (candidate sets,
  /// refinement pair maps, neighborhood subgraphs, match vectors). Soft:
  /// accounting may overshoot by one allocation before the trip is seen.
  uint64_t max_memory_bytes = 0;

  bool Unlimited() const {
    return timeout_ms == 0 && max_steps == 0 && max_memory_bytes == 0;
  }
};

/// Deterministic fault injection for governor trip points. A spec is a
/// comma-separated list of `point@N[:kind]` rules: the N-th charge against
/// that point trips with the given kind (default `steps`), e.g.
///   GQL_FAULT=refine@3            third refine charge trips the budget
///   GQL_FAULT=search@1:deadline   first search charge trips the deadline
/// Points: search, refine, retrieve, neighborhood, datalog, gindex, eval,
/// plus the server-side points accept, frame_read, and commit:
///   GQL_FAULT=accept@3            gqld drops the third accepted connection
///   GQL_FAULT=frame_read@5        the fifth request frame reads as corrupt
///   GQL_FAULT=commit@2            the second GraphStore commit aborts
///                                 (kResourceExhausted; nothing published)
///   GQL_FAULT=wal_append@4        the fourth WAL append tears mid-record
///                                 (a half-written record reaches disk)
///   GQL_FAULT=checkpoint@2        the second checkpoint aborts after its
///                                 files are written but before MANIFEST
/// Server points are charged by src/server/ code, not by governor checks;
/// the injected kind maps onto the failure (cancel → connection torn down,
/// anything else → a structured error response). Kinds: steps, deadline,
/// cancel, memory.
///
/// OnCharge() is thread-safe (the server charges accept/frame_read/commit
/// from different threads than the evaluating sessions); counts are
/// per-point atomics.
class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(const FaultInjector& other) { *this = other; }
  FaultInjector& operator=(const FaultInjector& other) {
    if (this != &other) {
      rules_ = other.rules_;
      for (int i = 0; i < kNumGovernPoints; ++i) {
        counts_[i].store(other.counts_[i].load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
      }
    }
    return *this;
  }

  /// Parses a spec; kInvalidArgument on malformed input.
  static Result<FaultInjector> Parse(std::string_view spec);

  /// Process-wide injector built from $GQL_FAULT at first use; null when
  /// the variable is unset/empty/invalid. Intended for end-to-end tests of
  /// shipped binaries; unit tests construct injectors directly.
  static FaultInjector* FromEnv();

  /// Adds one rule programmatically (tests).
  void AddRule(GovernPoint point, uint64_t at, TripKind kind);

  /// Counts a charge against `point`; returns the kind to inject when a
  /// rule matches this exact count, kNone otherwise. Thread-safe.
  TripKind OnCharge(GovernPoint point);

  bool empty() const { return rules_.empty(); }

 private:
  struct Rule {
    GovernPoint point;
    uint64_t at;
    TripKind kind;
  };
  std::vector<Rule> rules_;
  std::array<std::atomic<uint64_t>, kNumGovernPoints> counts_{};
};

/// Per-query resource governor: a wall-clock deadline, a cooperative
/// cancellation token, a unified step budget, and approximate memory
/// accounting. One governor belongs to one evaluating thread, the only
/// one that charges it. Cancel() may be called from arbitrary other
/// threads (or a signal handler — it is a single relaxed atomic store),
/// and Expired() read from any thread; the workers of a parallel stage
/// only read, counting their charges in a TaskLedger for the evaluating
/// thread to replay.
///
/// The hot-path check is Charge(): a couple of integer additions and
/// compares, with the clock read (and fault-injector lookup) amortized to
/// once every kCheckIntervalSteps charged steps. A tripped governor stays
/// tripped ("sticky") so every layer above the trip site unwinds without
/// extra plumbing; callers degrade by returning the partial work done so
/// far. Step and memory trips at degradable sites may be rolled back via
/// RefundSteps()/ClearDegradableTrip() (the refinement fallback); deadline
/// and cancellation trips are permanent.
class ResourceGovernor {
 public:
  /// Clock reads are amortized to one per this many charged steps.
  static constexpr uint64_t kCheckIntervalSteps = 1024;

  /// Unlimited governor with the process-wide env fault injector.
  ResourceGovernor();
  explicit ResourceGovernor(const GovernorLimits& limits);

  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  /// Re-arms for a new query: installs the limits, clears all consumption
  /// counters, trip state, and degradation notes, and starts the deadline
  /// clock. A pending Cancel() issued before Arm() is discarded.
  void Arm(const GovernorLimits& limits);

  /// Requests cooperative cancellation. Thread- and signal-safe.
  void Cancel() { cancel_requested_.store(true, std::memory_order_relaxed); }

  /// Overrides the fault injector (null disables). Not reset by Arm().
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// True when any limit (or a fault injector) is set — callers use this
  /// to skip degradation bookkeeping (e.g. the pre-refinement candidate
  /// snapshot) on ungoverned queries.
  bool HasLimits() const { return !limits_.Unlimited() || injector_ != nullptr; }

  const GovernorLimits& limits() const { return limits_; }

  /// Charges `steps` units of work at `point`. Returns true to continue,
  /// false when the governor is (or just became) tripped. Eval thread only.
  bool Charge(uint64_t steps, GovernPoint point) {
    if (trip_kind_.load(std::memory_order_relaxed) != TripKind::kNone) {
      return false;
    }
    steps_used_ += steps;
    if (limits_.max_steps != 0 && steps_used_ > limits_.max_steps) {
      Trip(TripKind::kSteps, point);
      return false;
    }
    pending_steps_ += steps;
    if (pending_steps_ >= kCheckIntervalSteps) return SlowCheck(point);
    return true;
  }

  /// Charges `n` steps with exactly the outcome of n successive
  /// Charge(1, point) calls that stop at the first one returning false: a
  /// budget trip lands on the same step, and the slow-path check runs at
  /// the same steps, one per kCheckIntervalSteps, with the remainder
  /// carried over. Returns how many of the n single charges returned true;
  /// a result below n means charge number (result + 1) tripped, or the
  /// governor was already tripped. Costs O(1 + n / kCheckIntervalSteps).
  /// Eval thread only.
  uint64_t ChargeEach(uint64_t n, GovernPoint point);

  /// Forces the slow-path check (deadline, cancellation, fault injection)
  /// regardless of the amortization counter. Returns true to continue.
  bool CheckNow(GovernPoint point);

  /// True once Cancel() was called or the deadline has passed — trips the
  /// next slow check takes whatever is charged. Thread-safe; stays true
  /// until the next Arm().
  bool Expired() const;

  /// Approximate memory accounting for big transient structures. Soft:
  /// Reserve() always records the bytes; exceeding the budget trips the
  /// governor rather than failing the allocation, and the amortized
  /// Charge() checks unwind cooperatively.
  void Reserve(size_t bytes, GovernPoint point);
  void Release(size_t bytes);

  bool tripped() const {
    return trip_kind_.load(std::memory_order_relaxed) != TripKind::kNone;
  }
  TripKind trip_kind() const {
    return trip_kind_.load(std::memory_order_relaxed);
  }
  GovernPoint trip_point() const { return trip_point_; }

  /// True for step/memory trips, which a degradable stage may absorb.
  bool DegradableTrip() const {
    TripKind k = trip_kind();
    return k == TripKind::kSteps || k == TripKind::kMemory;
  }

  /// Rolls back a step/memory trip after a stage degraded (e.g. refinement
  /// fell back to unrefined candidates): clears the trip so later stages
  /// keep running. Returns false (and clears nothing) for deadline or
  /// cancellation trips. Injected faults of degradable kinds clear too.
  bool ClearDegradableTrip();

  /// Returns `n` charged steps to the budget (used with ClearDegradableTrip
  /// to refund the work of a stage whose results were discarded).
  void RefundSteps(uint64_t n) { steps_used_ -= n < steps_used_ ? n : steps_used_; }

  /// Records a human-readable degradation event ("refine: fell back ...");
  /// collected into the query's LimitReport.
  void NoteDegradation(std::string note) {
    degradations_.push_back(std::move(note));
  }
  const std::vector<std::string>& degradations() const { return degradations_; }

  uint64_t steps_used() const { return steps_used_; }
  size_t memory_used() const { return memory_used_; }
  size_t peak_memory() const { return peak_memory_; }
  int64_t elapsed_ms() const;

  /// OK when not tripped; otherwise the mapped status:
  /// deadline → kDeadlineExceeded, cancel → kCancelled,
  /// steps/memory → kResourceExhausted.
  Status ToStatus() const;

 private:
  void Trip(TripKind kind, GovernPoint point);
  bool SlowCheck(GovernPoint point);

  GovernorLimits limits_;
  FaultInjector* injector_ = nullptr;
  int64_t armed_at_us_ = 0;
  int64_t deadline_us_ = 0;  ///< 0 = none.

  uint64_t steps_used_ = 0;
  uint64_t pending_steps_ = 0;  ///< Steps since the last slow check.
  size_t memory_used_ = 0;
  size_t peak_memory_ = 0;

  std::atomic<bool> cancel_requested_{false};
  std::atomic<TripKind> trip_kind_{TripKind::kNone};
  GovernPoint trip_point_ = GovernPoint::kOther;
  std::vector<std::string> degradations_;
};

/// What one task of a parallel stage would have charged the governor:
/// workers never charge it. Each task counts its steps and the bytes it
/// would have reserved; afterwards the evaluating thread replays the
/// counts in serial order with the Charge/ChargeEach/Reserve calls the
/// serial path makes, so step, memory and fault trips land where the
/// serial run puts them, and work past that point is discarded.
///
/// Charge() counts `steps` and returns false — the serial run would stop
/// here — once the task's steps exceed the steps the governor had left
/// when the stage started, or its bytes exceed the memory left: the
/// replay trips by then, so further work would be wasted. A worker keeps
/// one ledger across its tasks and Restart()s it per task; every
/// kCheckIntervalSteps of its steps it polls Expired(), and from then on
/// every task stops at its first charge. A null governor never stops.
class TaskLedger {
 public:
  TaskLedger() = default;
  /// Captures the budgets `gov` has left; call before the stage fans out.
  /// `max_steps` is a cap of the stage's own on its steps, below whatever
  /// step budget the governor has left.
  explicit TaskLedger(const ResourceGovernor* gov,
                      uint64_t max_steps = UINT64_MAX);

  bool Charge(uint64_t steps);
  void Reserve(size_t bytes) { bytes_ += bytes; }
  /// Starts a new task: clears the counts, keeps the budgets, the poll
  /// cadence and a seen expiry.
  void Restart() {
    steps_ = 0;
    bytes_ = 0;
    stopped_ = expired_;
  }

  uint64_t steps() const { return steps_; }
  size_t bytes() const { return bytes_; }
  /// The steps the governor had left, or the stage's cap when that is
  /// lower (UINT64_MAX = neither).
  uint64_t steps_left() const { return steps_left_; }
  /// The memory the governor had left (SIZE_MAX = no memory budget).
  size_t bytes_left() const { return bytes_left_; }
  /// True once the task must stop: a Charge() returned false, or the
  /// worker has seen the governor expire.
  bool stopped() const { return stopped_; }

 private:
  const ResourceGovernor* gov_ = nullptr;
  uint64_t steps_left_ = UINT64_MAX;
  size_t bytes_left_ = SIZE_MAX;
  uint64_t steps_ = 0;
  size_t bytes_ = 0;
  uint64_t since_poll_ = 0;
  bool stopped_ = false;
  bool expired_ = false;
};

/// Null-safe charge helpers: an ungoverned call site passes a null
/// governor and pays a single pointer compare.
inline bool GovCharge(ResourceGovernor* gov, uint64_t steps,
                      GovernPoint point) {
  return gov == nullptr || gov->Charge(steps, point);
}
inline bool GovOk(const ResourceGovernor* gov) {
  return gov == nullptr || !gov->tripped();
}

/// RAII reservation against a governor's memory budget; Grow() extends it
/// as the underlying structure grows. Null governor → no-op.
class ScopedReserve {
 public:
  ScopedReserve(ResourceGovernor* gov, size_t bytes, GovernPoint point)
      : gov_(gov), bytes_(bytes), point_(point) {
    if (gov_ != nullptr && bytes_ > 0) gov_->Reserve(bytes_, point_);
  }
  ~ScopedReserve() {
    if (gov_ != nullptr && bytes_ > 0) gov_->Release(bytes_);
  }
  ScopedReserve(const ScopedReserve&) = delete;
  ScopedReserve& operator=(const ScopedReserve&) = delete;

  void Grow(size_t more) {
    if (gov_ != nullptr && more > 0) {
      gov_->Reserve(more, point_);
      bytes_ += more;
    }
  }

 private:
  ResourceGovernor* gov_;
  size_t bytes_;
  GovernPoint point_;
};

/// Accounting allocator shim: a std::allocator that charges every
/// allocation to a governor's memory budget (soft — it never fails an
/// allocation itself; the budget trip is observed by the amortized
/// Charge() checks). Containers using it must outlive neither the
/// governor nor their own deallocation calls, which Release the bytes.
template <typename T>
class GovernedAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;

  GovernedAllocator() = default;
  explicit GovernedAllocator(ResourceGovernor* gov,
                             GovernPoint point = GovernPoint::kOther)
      : gov_(gov), point_(point) {}
  template <typename U>
  GovernedAllocator(const GovernedAllocator<U>& other)
      : gov_(other.gov_), point_(other.point_) {}

  T* allocate(size_t n) {
    if (gov_ != nullptr) gov_->Reserve(n * sizeof(T), point_);
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) {
    if (gov_ != nullptr) gov_->Release(n * sizeof(T));
    ::operator delete(p);
  }

  bool operator==(const GovernedAllocator& other) const {
    return gov_ == other.gov_;
  }
  bool operator!=(const GovernedAllocator& other) const {
    return !(*this == other);
  }

  ResourceGovernor* gov_ = nullptr;
  GovernPoint point_ = GovernPoint::kOther;
};

}  // namespace graphql

#endif  // GRAPHQL_COMMON_GOVERNOR_H_
