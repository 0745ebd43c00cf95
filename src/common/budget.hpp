// Cross-cutting resource budgets and the graceful-degradation taxonomy.
//
// Every potentially unbounded computation in the pipeline — SAT CEC,
// window don't-care analysis, the O(sites^2) reactive reduction
// heuristic — accepts a Budget and answers within it: on exhaustion the
// layer returns its best sound fallback (simulation evidence instead of a
// SAT proof, the local Eq. 1 ODC instead of the exact window, the best
// feasible code found so far) tagged with Status::kExhausted, instead of
// running to completion or being killed from outside.
//
// A Budget combines two independent caps, either or both of which may be
// active:
//   * a wall-clock deadline (steady_clock; reads are amortized so that
//     exhausted() is cheap enough for inner loops);
//   * a cooperative cancellation token shared with the caller, so a
//     serving layer can abandon a request from another thread.
// Each layer polls exhausted() at its own unit of progress: the SAT
// solver once per conflict, the window analyses once per cone gate, the
// reduction heuristics once per iteration or site. Effort caps in a
// layer's own unit (a SAT conflict limit) are that layer's options, not
// budget axes.
// Budgets are intentionally non-copyable: one Budget describes one
// request, and all layers working on that request share it by reference
// (options structs hold a `const Budget*`, nullptr meaning unlimited).
// The mutable state (clock-check phase, deadline hit, death site) is
// atomic so a const reference can be threaded through const-taking
// analysis code.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "common/telemetry.hpp"
#include "common/trace.hpp"

namespace odcfp {

/// How a budgeted computation ended.
enum class Status : std::uint8_t {
  kOk = 0,          ///< Completed within budget; result is exact/optimal.
  kExhausted,       ///< Budget died; result (if any) is a sound fallback.
  kInfeasible,      ///< No answer exists under the given constraints.
  kMalformedInput,  ///< Input violated the API contract; nothing was done.
};

const char* to_string(Status status);

/// Shared cooperative cancellation flag. Copies observe the same flag, so
/// a caller can hand the token down a pipeline and cancel all stages at
/// once from another thread.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() const { flag_->store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

class Budget {
 public:
  /// Default-constructed budgets are unlimited on every axis.
  Budget() = default;
  Budget(const Budget&) = delete;
  Budget& operator=(const Budget&) = delete;
  /// Moving is allowed so the named factories below can return by value;
  /// once a Budget is shared down a pipeline it must stay put.
  Budget(Budget&& other) noexcept
      : deadline_(other.deadline_),
        has_deadline_(other.has_deadline_),
        has_cancel_(other.has_cancel_),
        cancel_(std::move(other.cancel_)),
        clock_phase_(other.clock_phase_.load(std::memory_order_relaxed)),
        deadline_hit_(
            other.deadline_hit_.load(std::memory_order_relaxed)),
        died_in_(other.died_in_.load(std::memory_order_relaxed)) {}

  // ---- construction (chainable) ----

  static Budget deadline_ms(std::int64_t ms) {
    Budget b;
    b.with_deadline_ms(ms);
    return b;
  }

  Budget& with_deadline_ms(std::int64_t ms) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(ms);
    has_deadline_ = true;
    return *this;
  }
  Budget& with_cancel(CancelToken token) {
    cancel_ = std::move(token);
    has_cancel_ = true;
    return *this;
  }

  // ---- cooperative checks ----

  /// True once either axis of the budget is spent. Reads the wall clock
  /// only every kClockPeriod calls; callers place this in inner loops.
  bool exhausted() const {
    if (has_cancel_ && cancel_.cancelled()) {
      note_death();
      return true;
    }
    if (!has_deadline_) return false;
    if (deadline_hit_.load(std::memory_order_relaxed)) return true;
    if (clock_phase_.fetch_add(1, std::memory_order_relaxed) %
            kClockPeriod != 0) {
      return false;
    }
    return expired_now();
  }

  /// Unamortized deadline check (one clock read).
  bool expired_now() const {
    if (!has_deadline_) return false;
    if (std::chrono::steady_clock::now() >= deadline_) {
      deadline_hit_.store(true, std::memory_order_relaxed);
      note_death();
      return true;
    }
    return false;
  }

  bool has_deadline() const { return has_deadline_; }

  /// Seconds until the deadline (negative once past; a large positive
  /// constant when no deadline is set).
  double remaining_seconds() const;

  /// Name of the telemetry span that was innermost on the thread that
  /// first observed this budget exhausted — "which phase starved the
  /// request". nullptr while the budget stands; "" when it died outside
  /// any span or with telemetry and tracing both off.
  const char* died_in() const {
    return died_in_.load(std::memory_order_relaxed);
  }

 private:
  /// First-observation-wins attribution of where the budget died. The
  /// exhausted-true paths are terminal for the calling algorithm, so
  /// this runs a handful of times per request, not per check.
  void note_death() const {
    const char* expected = nullptr;
    if (died_in_.load(std::memory_order_relaxed) != nullptr) return;
    const char* span = telemetry::current_span_name();
    if (died_in_.compare_exchange_strong(expected,
                                         span != nullptr ? span : "",
                                         std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
      // The CAS winner marks the moment of death on the trace timeline;
      // args.detail names the span, matching Outcome::exhausted_at().
      trace::instant("budget.exhausted", span);
    }
  }

  static constexpr std::uint64_t kClockPeriod = 64;

  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  bool has_cancel_ = false;
  CancelToken cancel_;
  mutable std::atomic<std::uint64_t> clock_phase_{0};
  mutable std::atomic<bool> deadline_hit_{false};
  mutable std::atomic<const char*> died_in_{nullptr};
};

/// Convenience for the `const Budget*` convention in options structs.
inline bool budget_exhausted(const Budget* b) {
  return b != nullptr && b->exhausted();
}

/// Result-or-degradation wrapper. Invariants:
///  * kOk             => has_value(), confidence == 1
///  * kExhausted      => may carry a degraded value (anytime algorithms)
///                       with confidence in [0, 1]
///  * kInfeasible / kMalformedInput => no value, message explains why.
template <typename T>
class Outcome {
 public:
  static Outcome success(T value) {
    Outcome o;
    o.status_ = Status::kOk;
    o.value_ = std::move(value);
    o.confidence_ = 1.0;
    return o;
  }
  /// A sound-but-degraded result produced after budget exhaustion.
  static Outcome exhausted(T value, std::string message,
                           double confidence) {
    Outcome o;
    o.status_ = Status::kExhausted;
    o.value_ = std::move(value);
    o.message_ = std::move(message);
    o.confidence_ = confidence;
    o.exhausted_at_ = telemetry::current_span_name();
    return o;
  }
  /// Budget died before any usable result existed.
  static Outcome exhausted(std::string message) {
    Outcome o;
    o.status_ = Status::kExhausted;
    o.message_ = std::move(message);
    o.confidence_ = 0.0;
    o.exhausted_at_ = telemetry::current_span_name();
    return o;
  }
  static Outcome infeasible(std::string message) {
    Outcome o;
    o.status_ = Status::kInfeasible;
    o.message_ = std::move(message);
    return o;
  }
  static Outcome malformed(std::string message) {
    Outcome o;
    o.status_ = Status::kMalformedInput;
    o.message_ = std::move(message);
    return o;
  }

  Status status() const { return status_; }
  bool ok() const { return status_ == Status::kOk; }
  bool has_value() const { return value_.has_value(); }
  /// For kExhausted: the telemetry span where the budget died — taken
  /// from Budget::died_in() when the producing layer threaded it through
  /// (see with_exhausted_at), else the span that built this Outcome.
  /// "" when unattributed (no span open, or telemetry and tracing off).
  const char* exhausted_at() const {
    return exhausted_at_ != nullptr ? exhausted_at_ : "";
  }
  /// Overrides the exhaustion site with the budget's own attribution
  /// (the span where exhaustion was first *observed*, which can be
  /// deeper than where the Outcome is assembled). nullptr is ignored.
  Outcome&& with_exhausted_at(const char* span) && {
    if (span != nullptr) exhausted_at_ = span;
    return std::move(*this);
  }
  /// Confidence in the carried value: 1 for exact results, the fallback's
  /// evidence score for degraded ones, 0 when there is no value.
  double confidence() const { return confidence_; }
  const std::string& message() const { return message_; }

  const T& value() const& { return value_.value(); }
  T& value() & { return value_.value(); }
  T&& value() && { return std::move(value_).value(); }
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }

 private:
  Status status_ = Status::kOk;
  std::optional<T> value_;
  std::string message_;
  double confidence_ = 0.0;
  const char* exhausted_at_ = nullptr;  ///< Static-storage span literal.
};

}  // namespace odcfp
