#include "common/governor.h"

#include <algorithm>
#include <cstdlib>

#include "common/strings.h"
#include "obs/clock.h"

namespace graphql {

const char* TripKindName(TripKind kind) {
  switch (kind) {
    case TripKind::kNone:
      return "none";
    case TripKind::kDeadline:
      return "deadline";
    case TripKind::kCancelled:
      return "cancelled";
    case TripKind::kSteps:
      return "steps";
    case TripKind::kMemory:
      return "memory";
  }
  return "?";
}

const char* GovernPointName(GovernPoint point) {
  switch (point) {
    case GovernPoint::kSearch:
      return "search";
    case GovernPoint::kRefine:
      return "refine";
    case GovernPoint::kRetrieve:
      return "retrieve";
    case GovernPoint::kNeighborhood:
      return "neighborhood";
    case GovernPoint::kDatalog:
      return "datalog";
    case GovernPoint::kGindex:
      return "gindex";
    case GovernPoint::kEval:
      return "eval";
    case GovernPoint::kAccept:
      return "accept";
    case GovernPoint::kFrameRead:
      return "frame_read";
    case GovernPoint::kCommit:
      return "commit";
    case GovernPoint::kWalAppend:
      return "wal_append";
    case GovernPoint::kCheckpoint:
      return "checkpoint";
    case GovernPoint::kOther:
      return "other";
  }
  return "?";
}

namespace {

bool PointFromName(std::string_view name, GovernPoint* out) {
  for (int i = 0; i < kNumGovernPoints; ++i) {
    GovernPoint p = static_cast<GovernPoint>(i);
    if (name == GovernPointName(p)) {
      *out = p;
      return true;
    }
  }
  // Historical alias used in docs/examples: refine_budget == refine.
  if (name == "refine_budget") {
    *out = GovernPoint::kRefine;
    return true;
  }
  return false;
}

bool KindFromName(std::string_view name, TripKind* out) {
  if (name == "steps") {
    *out = TripKind::kSteps;
  } else if (name == "deadline") {
    *out = TripKind::kDeadline;
  } else if (name == "cancel" || name == "cancelled") {
    *out = TripKind::kCancelled;
  } else if (name == "memory") {
    *out = TripKind::kMemory;
  } else {
    return false;
  }
  return true;
}

}  // namespace

Result<FaultInjector> FaultInjector::Parse(std::string_view spec) {
  FaultInjector injector;
  for (const std::string& entry : Split(spec, ',')) {
    if (entry.empty()) continue;
    size_t at_pos = entry.find('@');
    if (at_pos == std::string::npos) {
      return Status::InvalidArgument("fault rule '" + entry +
                                     "' is missing '@N'");
    }
    Rule rule;
    if (!PointFromName(entry.substr(0, at_pos), &rule.point)) {
      return Status::InvalidArgument("unknown fault point in '" + entry + "'");
    }
    std::string rest = entry.substr(at_pos + 1);
    rule.kind = TripKind::kSteps;
    size_t colon = rest.find(':');
    if (colon != std::string::npos) {
      if (!KindFromName(rest.substr(colon + 1), &rule.kind)) {
        return Status::InvalidArgument("unknown fault kind in '" + entry +
                                       "'");
      }
      rest = rest.substr(0, colon);
    }
    char* end = nullptr;
    unsigned long long n = std::strtoull(rest.c_str(), &end, 10);
    if (end == rest.c_str() || *end != '\0' || n == 0) {
      return Status::InvalidArgument("bad fault count in '" + entry + "'");
    }
    rule.at = n;
    injector.rules_.push_back(rule);
  }
  return injector;
}

FaultInjector* FaultInjector::FromEnv() {
  static FaultInjector* const kInjector = []() -> FaultInjector* {
    // NOLINTNEXTLINE(concurrency-mt-unsafe) read-only env lookup; no setenv anywhere
    const char* spec = std::getenv("GQL_FAULT");
    if (spec == nullptr || *spec == '\0') return nullptr;
    Result<FaultInjector> parsed = Parse(spec);
    if (!parsed.ok()) return nullptr;
    return new FaultInjector(std::move(parsed).value());
  }();
  return kInjector;
}

void FaultInjector::AddRule(GovernPoint point, uint64_t at, TripKind kind) {
  rules_.push_back(Rule{point, at, kind});
}

TripKind FaultInjector::OnCharge(GovernPoint point) {
  uint64_t count = counts_[static_cast<int>(point)].fetch_add(
                       1, std::memory_order_relaxed) +
                   1;
  for (const Rule& rule : rules_) {
    if (rule.point == point && rule.at == count) return rule.kind;
  }
  return TripKind::kNone;
}

ResourceGovernor::ResourceGovernor() : injector_(FaultInjector::FromEnv()) {
  Arm(GovernorLimits{});
}

ResourceGovernor::ResourceGovernor(const GovernorLimits& limits)
    : injector_(FaultInjector::FromEnv()) {
  Arm(limits);
}

void ResourceGovernor::Arm(const GovernorLimits& limits) {
  limits_ = limits;
  armed_at_us_ = obs::NowMicros();
  deadline_us_ =
      limits.timeout_ms > 0 ? armed_at_us_ + limits.timeout_ms * 1000 : 0;
  steps_used_ = 0;
  pending_steps_ = 0;
  memory_used_ = 0;
  peak_memory_ = 0;
  cancel_requested_.store(false, std::memory_order_relaxed);
  trip_kind_.store(TripKind::kNone, std::memory_order_relaxed);
  trip_point_ = GovernPoint::kOther;
  degradations_.clear();
}

void ResourceGovernor::Trip(TripKind kind, GovernPoint point) {
  TripKind expected = TripKind::kNone;
  if (trip_kind_.compare_exchange_strong(expected, kind,
                                         std::memory_order_relaxed)) {
    trip_point_ = point;
  }
}

bool ResourceGovernor::SlowCheck(GovernPoint point) {
  pending_steps_ = 0;
  if (cancel_requested_.load(std::memory_order_relaxed)) {
    Trip(TripKind::kCancelled, point);
    return false;
  }
  if (deadline_us_ != 0 && obs::NowMicros() > deadline_us_) {
    Trip(TripKind::kDeadline, point);
    return false;
  }
  if (injector_ != nullptr) {
    TripKind injected = injector_->OnCharge(point);
    if (injected != TripKind::kNone) {
      Trip(injected, point);
      return false;
    }
  }
  return true;
}

uint64_t ResourceGovernor::ChargeEach(uint64_t n, GovernPoint point) {
  uint64_t done = 0;
  while (done < n) {
    if (tripped()) return done;
    // Single charges until the one that exceeds the budget, and until the
    // one that fills the slow-check interval.
    uint64_t to_trip = UINT64_MAX;
    if (limits_.max_steps != 0) {
      to_trip = steps_used_ < limits_.max_steps
                    ? limits_.max_steps - steps_used_ + 1
                    : 1;
    }
    uint64_t to_check = pending_steps_ < kCheckIntervalSteps
                            ? kCheckIntervalSteps - pending_steps_
                            : 1;
    uint64_t left = n - done;
    if (left < to_trip && left < to_check) {
      steps_used_ += left;
      pending_steps_ += left;
      return n;
    }
    if (to_trip <= to_check) {
      // Charge() tests the budget before it counts the step as pending.
      steps_used_ += to_trip;
      pending_steps_ += to_trip - 1;
      Trip(TripKind::kSteps, point);
      return done + to_trip - 1;
    }
    steps_used_ += to_check;
    pending_steps_ += to_check;
    done += to_check;
    if (!SlowCheck(point)) return done - 1;
  }
  return done;
}

bool ResourceGovernor::CheckNow(GovernPoint point) {
  if (tripped()) return false;
  return SlowCheck(point);
}

bool ResourceGovernor::Expired() const {
  return cancel_requested_.load(std::memory_order_relaxed) ||
         (deadline_us_ != 0 && obs::NowMicros() > deadline_us_);
}

void ResourceGovernor::Reserve(size_t bytes, GovernPoint point) {
  memory_used_ += bytes;
  if (memory_used_ > peak_memory_) peak_memory_ = memory_used_;
  if (limits_.max_memory_bytes != 0 &&
      memory_used_ > limits_.max_memory_bytes) {
    Trip(TripKind::kMemory, point);
  }
}

void ResourceGovernor::Release(size_t bytes) {
  memory_used_ -= bytes < memory_used_ ? bytes : memory_used_;
}

bool ResourceGovernor::ClearDegradableTrip() {
  if (!DegradableTrip()) return false;
  trip_kind_.store(TripKind::kNone, std::memory_order_relaxed);
  trip_point_ = GovernPoint::kOther;
  pending_steps_ = 0;
  return true;
}

TaskLedger::TaskLedger(const ResourceGovernor* gov, uint64_t max_steps)
    : gov_(gov), steps_left_(max_steps) {
  if (gov == nullptr) return;
  const GovernorLimits& limits = gov->limits();
  if (gov->tripped()) {
    steps_left_ = 0;
  } else if (limits.max_steps != 0) {
    steps_left_ = std::min(
        steps_left_,
        limits.max_steps - std::min(gov->steps_used(), limits.max_steps));
  }
  if (limits.max_memory_bytes != 0) {
    bytes_left_ = limits.max_memory_bytes -
                  std::min<size_t>(gov->memory_used(), limits.max_memory_bytes);
  }
}

bool TaskLedger::Charge(uint64_t steps) {
  steps_ += steps;
  since_poll_ += steps;
  if (steps_ > steps_left_ || bytes_ > bytes_left_) stopped_ = true;
  if (gov_ != nullptr &&
      since_poll_ >= ResourceGovernor::kCheckIntervalSteps) {
    since_poll_ = 0;
    expired_ = expired_ || gov_->Expired();
    stopped_ = stopped_ || expired_;
  }
  return !stopped_;
}

int64_t ResourceGovernor::elapsed_ms() const {
  return (obs::NowMicros() - armed_at_us_) / 1000;
}

Status ResourceGovernor::ToStatus() const {
  TripKind kind = trip_kind();
  std::string where = GovernPointName(trip_point_);
  switch (kind) {
    case TripKind::kNone:
      return Status::OK();
    case TripKind::kDeadline:
      return Status::DeadlineExceeded("query deadline (" +
                                      std::to_string(limits_.timeout_ms) +
                                      " ms) exceeded in " + where);
    case TripKind::kCancelled:
      return Status::Cancelled("query cancelled in " + where);
    case TripKind::kSteps:
      return Status::ResourceExhausted(
          "step budget (" + std::to_string(limits_.max_steps) +
          ") exhausted in " + where);
    case TripKind::kMemory:
      return Status::ResourceExhausted(
          "memory budget (" + std::to_string(limits_.max_memory_bytes) +
          " bytes) exhausted in " + where);
  }
  return Status::Internal("unknown trip kind");
}

}  // namespace graphql
