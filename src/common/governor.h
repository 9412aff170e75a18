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
#include "common/thread_annotations.h"

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

/// Per-query resource limits. The uniform convention across the engine is
/// 0 = unlimited (this replaced the old mix where matcher max_steps used 0
/// for "disabled" but neighborhood_step_budget used a nonzero default).
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
/// accounting. One governor belongs to one evaluating thread; Cancel() is
/// the only member callable from arbitrary other threads (or a signal
/// handler — it is a single relaxed atomic store). Parallel pipeline
/// stages additionally charge from their workers through the mutex-backed
/// ChargeBatch()/ReserveShared() (see GovernorShard below); the protocol
/// is that while workers are active the owning thread participates as a
/// worker itself, so the unsynchronized fast paths never race them.
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

  /// Thread-safe batched charge for parallel pipeline workers: takes an
  /// internal mutex, adds the whole batch to the step budget, and always
  /// runs the slow-path check (a batch stands for ~kCheckIntervalSteps
  /// charges, matching the serial amortization cadence). Workers accumulate
  /// steps in a GovernorShard and flush through here, so contention is one
  /// lock per ~1024 steps per worker. Must not race the single-threaded
  /// Charge(): during a parallel stage every participant (including the
  /// coordinating thread) charges through shards.
  bool ChargeBatch(uint64_t steps, GovernPoint point) GQL_EXCLUDES(shared_mu_);

  /// Thread-safe Reserve(), for allocations made on worker threads.
  void ReserveShared(size_t bytes, GovernPoint point) GQL_EXCLUDES(shared_mu_);

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
  /// Serializes ChargeBatch()/ReserveShared() against each other. The
  /// single-threaded fast paths never take it, so the consumption counters
  /// above cannot be GQL_GUARDED_BY it — their safety contract is the
  /// stage protocol (while workers are active, every participant charges
  /// through shards; the unsynchronized fast paths run only between
  /// parallel stages), asserted by the TSan lane rather than the compiler.
  Mutex shared_mu_;
};

/// Per-worker charge accumulator for parallel pipeline stages. Each worker
/// owns one shard: steps count locally (a register increment) and flush to
/// the governor through the thread-safe ChargeBatch() every
/// kCheckIntervalSteps, so the budget/deadline/cancel checks keep the
/// serial path's amortization while workers stay contention-free between
/// flushes. A trip is observed by every shard within one batch: Charge()
/// polls the governor's sticky atomic trip flag on each call.
///
/// A null governor makes every operation a no-op that reports "continue";
/// parallel code can therefore run ungoverned without branching.
class GovernorShard {
 public:
  GovernorShard() = default;
  GovernorShard(ResourceGovernor* gov, GovernPoint point)
      : gov_(gov), point_(point) {}
  GovernorShard(const GovernorShard&) = delete;
  GovernorShard& operator=(const GovernorShard&) = delete;
  GovernorShard(GovernorShard&&) = default;
  GovernorShard& operator=(GovernorShard&&) = default;

  /// Charges `steps`; returns false once the governor has tripped (either
  /// from this shard's flush or any other thread). Callers must Flush()
  /// when their task batch ends so partially accumulated steps reach the
  /// budget.
  bool Charge(uint64_t steps = 1) {
    if (gov_ == nullptr) return true;
    pending_ += steps;
    if (pending_ >= ResourceGovernor::kCheckIntervalSteps) return Flush();
    return !gov_->tripped();
  }

  /// Flushes accumulated steps to the governor; returns false on a trip.
  bool Flush() {
    if (gov_ == nullptr) return true;
    if (pending_ == 0) return !gov_->tripped();
    uint64_t n = pending_;
    pending_ = 0;
    charged_ += n;
    return gov_->ChargeBatch(n, point_);
  }

  /// True while the governor (if any) has not tripped.
  bool ok() const { return gov_ == nullptr || !gov_->tripped(); }

  /// Thread-safe memory accounting against the shared budget.
  void Reserve(size_t bytes) {
    if (gov_ != nullptr && bytes > 0) gov_->ReserveShared(bytes, point_);
  }

  /// Steps this shard has flushed into the governor (for refunds).
  uint64_t charged() const { return charged_; }

 private:
  ResourceGovernor* gov_ = nullptr;
  GovernPoint point_ = GovernPoint::kOther;
  uint64_t pending_ = 0;
  uint64_t charged_ = 0;
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
