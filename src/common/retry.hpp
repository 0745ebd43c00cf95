// Deterministic exponential-backoff retry for transient failures.
//
// The crash-safety layer classifies failures into two kinds: permanent
// (malformed input, infeasible constraints, logic bugs — retrying cannot
// help) and transient (allocation failure under memory pressure, a
// per-buyer sub-budget that ran out, an injected or real I/O
// fault on an artifact write). retry_with_backoff re-runs an operation
// across transient failures with exponentially growing, jitter-spread
// delays, and gives up cleanly — Status::kExhausted, never an unbounded
// loop — when attempts or the shared Budget run out.
//
// Determinism contract: the backoff sequence is a pure function of
// (policy.seed, attempt index) — backoff_delay_ms() — never of the wall
// clock, the thread, or scheduling order, so a retried batch produces
// identical attempt counts, backoff sequences, and telemetry counters at
// any thread count (the retry_test TSan suite proves it). Jitter is
// drawn from common/rng's splitmix-seeded xoshiro stream, the same
// machinery every other reproducible randomness in the library uses.
//
// Transient classification:
//  * the operation returns Status::kExhausted  -> transient (sub-budget)
//  * the operation throws std::bad_alloc       -> transient
//  * the operation throws fault::InjectedIoError -> transient
//  * Status::kInfeasible / kMalformedInput     -> permanent, returned
//  * any other exception                       -> permanent, propagates
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/budget.hpp"

namespace odcfp {

struct RetryPolicy {
  /// Total tries including the first (1 = no retries).
  int max_attempts = 4;
  double base_delay_ms = 1.0;
  double multiplier = 2.0;
  double max_delay_ms = 1000.0;
  /// Fraction of each nominal delay that is randomized:
  /// delay = nominal * (1 - jitter + jitter * u), u ~ U[0,1) seeded by
  /// (seed, attempt). 0 disables jitter entirely.
  double jitter = 0.5;
  /// Seed of the jitter stream. Callers with per-item work derive this
  /// from the item's seed so fleets of retries stay decorrelated AND
  /// reproducible.
  std::uint64_t seed = 0;
  /// Deadline/cancellation source. A retry whose backoff would sleep
  /// past the deadline is not attempted: the call gives up with
  /// kExhausted immediately instead of burning the caller's budget
  /// asleep. Backoff sleeps are sliced and re-check the budget between
  /// slices, so a *concurrent* cancel or deadline expiry wakes the loop
  /// within milliseconds and gives up — never sleeping out the rest of
  /// the backoff, never running another attempt.
  const Budget* budget = nullptr;
  /// When false the backoff is computed and recorded but not slept —
  /// determinism tests replay schedules without wall-clock coupling.
  bool sleep = true;
};

struct RetryStats {
  /// kOk: an attempt succeeded. kExhausted: transient failures outlasted
  /// max_attempts or the budget. kInfeasible/kMalformedInput: the
  /// operation reported a permanent failure (passed through).
  Status status = Status::kOk;
  int attempts = 0;
  /// One entry per backoff actually scheduled (attempts - 1 on a run
  /// that eventually succeeded, up to max_attempts - 1). Deterministic:
  /// equals backoff_delay_ms(policy, i + 1) element-wise.
  std::vector<double> backoff_ms;
  /// Description of the last transient failure ("" when none).
  std::string last_error;
};

/// The nominal-with-jitter delay scheduled before retry number `attempt`
/// (1-based: the delay after the first failed attempt is attempt == 1).
/// Pure function of (policy.seed, attempt).
double backoff_delay_ms(const RetryPolicy& policy, int attempt);

/// Runs `attempt` (argument: 1-based attempt number) until it succeeds,
/// fails permanently, or the policy gives up. `what` labels telemetry
/// counters, log records, and trace instants; it must be a literal.
RetryStats retry_with_backoff(const char* what, const RetryPolicy& policy,
                              const std::function<Status(int)>& attempt);

}  // namespace odcfp
