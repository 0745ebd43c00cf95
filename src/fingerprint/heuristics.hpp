// Overhead-constrained fingerprinting heuristics (paper §III.D / §IV.B).
//
// * reactive_reduce — the paper's implemented method: start from the fully
//   fingerprinted circuit, repeatedly trial-remove applied modifications
//   and permanently remove the one that reduces delay the most; when no
//   single removal helps, remove a random one (the paper's random kicks),
//   until the delay overhead constraint is met. Run with multiple restarts
//   ("this program needed to be run several times") and keep the best.
//
// * proactive_insert — the paper's sketched alternative: consider
//   modifications one at a time (cheapest expected delay first, trying
//   reroute options before the generic injection since rerouted signals
//   arrive earlier) and keep a modification only if the circuit still
//   meets the delay constraint.
//
// Both return the kept code plus the resulting overhead numbers, which is
// exactly what Table III and Fig. 7 report.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/budget.hpp"
#include "fingerprint/embedder.hpp"
#include "power/power.hpp"
#include "timing/sta.hpp"

namespace odcfp {

/// Area/delay/power of the unfingerprinted circuit.
struct Baseline {
  double area = 0;
  double delay = 0;
  double power = 0;

  static Baseline measure(const Netlist& golden,
                          const StaticTimingAnalyzer& sta,
                          const PowerAnalyzer& power);
};

/// Overheads of the current (possibly fingerprinted) netlist vs baseline.
/// A degenerate zero baseline axis (area/delay/power == 0) reports +inf
/// for any positive measured value on that axis instead of masking the
/// cost as 0.0; zero-over-zero stays 0.
struct Overheads {
  double area_ratio = 0;   ///< (area - base) / base
  double delay_ratio = 0;
  double power_ratio = 0;

  static Overheads measure(const Netlist& nl, const Baseline& base,
                           const StaticTimingAnalyzer& sta,
                           const PowerAnalyzer& power);
  /// Same, for a netlist whose critical delay was already timed.
  static Overheads measure(const Netlist& nl, const Baseline& base,
                           double critical_delay, const PowerAnalyzer& power);
};

struct HeuristicOutcome {
  FingerprintCode code;        ///< Kept modifications.
  std::size_t sites_total = 0;
  std::size_t sites_kept = 0;
  double bits_total = 0;       ///< Capacity before reduction.
  double bits_kept = 0;        ///< Capacity of kept sites.
  Overheads overheads;
  std::size_t sta_evaluations = 0;
  /// kOk when the heuristic ran to completion; kExhausted when its budget
  /// died first — `code` is then the best checkpoint found so far (for
  /// reactive_reduce always a delay-feasible one, falling back to the
  /// blank code when no better feasible checkpoint existed yet).
  Status status = Status::kOk;
  /// Telemetry span in which the budget died ("" when unknown; nullptr
  /// when status != kExhausted). Points at a string literal — cheap to
  /// copy, valid for the program's lifetime.
  const char* exhausted_at = nullptr;
  /// Random escapes taken across the whole run (all restarts). Can exceed
  /// ReactiveOptions::max_random_kicks, which bounds only the longest
  /// *consecutive* streak without greedy progress.
  std::size_t random_kicks = 0;
  std::size_t max_consecutive_kicks = 0;

  double fingerprint_reduction() const {
    return bits_total <= 0 ? 0 : 1.0 - bits_kept / bits_total;
  }
};

struct ReactiveOptions {
  double max_delay_overhead = 0.10;  ///< e.g. 0.10 = 10% constraint.
  int restarts = 3;
  /// Cap on *consecutive* random escapes: a run ends only after this many
  /// kicks in a row without an intervening greedy removal. (Cumulative
  /// counting would end long runs whose kicks were spread out between
  /// phases of healthy greedy progress.)
  int max_random_kicks = 500;
  std::uint64_t seed = 99;
  /// Trial-remove at most this many candidates per iteration (the most
  /// critical ones); bounds the O(sites^2) worst case on large circuits.
  int max_candidates_per_iteration = 32;
  /// Deadline / cancellation caps. When the budget dies mid-restart the
  /// heuristic stops at the next checkpoint and returns the best feasible
  /// code seen so far (HeuristicOutcome::status == kExhausted) instead of
  /// running to completion.
  const Budget* budget = nullptr;
};

struct ProactiveOptions {
  double max_delay_overhead = 0.10;
  /// Deadline / cancellation caps; on exhaustion the sites kept so far
  /// (each individually verified feasible) are returned with
  /// HeuristicOutcome::status == kExhausted.
  const Budget* budget = nullptr;
};

/// Appends to `seeds` the seed set for ArrivalTracker::update after
/// structurally modifying `gates`: the gates themselves, the drivers of
/// their fanins (whose output loads changed), and the sinks of their
/// outputs (which may now read different nets). The one seed rule of
/// every tracker user: call it on touched_gates() after an apply, and
/// before a remove; after a rolled-back trial, the seeds of both sides of
/// the edit. Dead / out-of-range gates are skipped.
void timing_seeds(const Netlist& nl, std::span<const GateId> gates,
                  std::vector<GateId>& seeds);

/// Runs the reactive heuristic. The embedder's netlist is left in the
/// returned configuration.
HeuristicOutcome reactive_reduce(FingerprintEmbedder& embedder,
                                 const Baseline& baseline,
                                 const StaticTimingAnalyzer& sta,
                                 const PowerAnalyzer& power,
                                 const ReactiveOptions& options = {});

/// Runs the proactive heuristic from a blank configuration. The embedder's
/// netlist is left in the returned configuration.
HeuristicOutcome proactive_insert(FingerprintEmbedder& embedder,
                                  const Baseline& baseline,
                                  const StaticTimingAnalyzer& sta,
                                  const PowerAnalyzer& power,
                                  const ProactiveOptions& options = {});

}  // namespace odcfp
