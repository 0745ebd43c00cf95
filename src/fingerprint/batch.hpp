// Multi-buyer batch edition pipeline.
//
// The paper's distribution model (§III.E) gives every buyer a distinct
// fingerprinted copy of the same golden netlist. Stamping the copies is
// embarrassingly parallel — each edition is an independent clone + embed +
// measure — so this module fans the per-buyer work across a ThreadPool:
//
//  * make_edition            — the per-buyer stamp. Clones the golden
//    netlist, embeds the buyer's whole codeword, then times the edition
//    with one full STA pass, which yields both its critical delay and its
//    delay overhead.
//  * batch_fingerprint       — stamp one edition per codeword of a
//    Codebook, in memory.
//  * batch_verify_equivalence — fan CEC of all editions against the
//    golden netlist across the pool in shared-miter
//    IncrementalCecSessions, escalating a check that exhausts its quota
//    to verify_equivalence_budgeted.
//
// The crash-safe runner every shipped order goes through (dist::run_shard,
// src/dist/runner.hpp) stamps with the same make_edition and buyer_seed,
// adding the journal, the atomic publish and the retries this module
// knows nothing of.
//
// Determinism contract: results are byte-identical for any pool size
// (including none). Editions never share mutable state; any randomness
// downstream consumers need is derived from BatchOptions::seed and the
// buyer index only (BuyerEdition::seed), never from scheduling order. The
// single sanctioned nondeterminism is *which* editions complete when a
// shared Budget dies mid-batch — skipped editions come back tagged
// Status::kExhausted, and every completed edition is still bit-exact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/budget.hpp"
#include "equiv/cec.hpp"
#include "fingerprint/codewords.hpp"
#include "fingerprint/heuristics.hpp"
#include "power/power.hpp"
#include "timing/sta.hpp"

namespace odcfp {

class ThreadPool;

struct BatchOptions {
  /// Per-edition delay constraint: an edition whose delay overhead vs the
  /// golden baseline exceeds this is tagged Status::kInfeasible (the
  /// codeword stays embedded — a partial embedding would not decode to
  /// the buyer's codeword, so the caller decides whether to reject the
  /// edition or relax the constraint). <= 0 disables the check.
  double max_delay_overhead = 0.10;

  /// Base seed; each edition derives its own stream as
  /// splitmix64(seed ^ buyer index), independent of scheduling order.
  std::uint64_t seed = 42;

  /// Pool to fan editions across (nullptr = serial, same results).
  ThreadPool* pool = nullptr;

  /// Shared deadline / cancellation caps for the whole batch,
  /// checked between editions (one edition is the cancellation
  /// granularity). On exhaustion the remaining editions are skipped and
  /// returned with Status::kExhausted and an empty netlist.
  const Budget* budget = nullptr;
};

/// One stamped buyer copy.
struct BuyerEdition {
  std::size_t buyer = 0;
  /// The fingerprinted clone (empty when status == kExhausted).
  Netlist netlist;
  /// The embedded codeword (copy of Codebook::code(buyer)).
  FingerprintCode code;
  Overheads overheads;
  double critical_delay = 0;
  /// Per-buyer derived seed for downstream randomized work (e.g. the
  /// simulation patterns of batch_verify_equivalence).
  std::uint64_t seed = 0;
  /// kOk: stamped and within the delay constraint. kInfeasible: stamped
  /// but over the constraint. kExhausted: skipped (batch budget died).
  Status status = Status::kOk;
};

struct BatchResult {
  /// One entry per buyer of the codebook, index-aligned.
  std::vector<BuyerEdition> editions;
  Baseline baseline;
  /// kOk when every edition was stamped; kExhausted when the budget died
  /// mid-batch (some editions skipped); kInfeasible when everything was
  /// stamped but at least one edition violates the delay constraint.
  Status status = Status::kOk;
  /// Telemetry span in which the shared budget died ("" when unknown;
  /// nullptr when status != kExhausted). Always a string literal.
  const char* exhausted_at = nullptr;

  std::size_t num_ok() const {
    std::size_t n = 0;
    for (const BuyerEdition& e : editions) {
      if (e.status == Status::kOk) ++n;
    }
    return n;
  }
};

/// The seed of `buyer`'s edition (BuyerEdition::seed): a fixed function
/// of the base seed and the buyer index, never of scheduling order.
std::uint64_t buyer_seed(std::uint64_t base, std::size_t buyer);

/// Stamps `buyer`'s edition: a clone of `golden` carrying the buyer's
/// whole codeword of `book`, timed once against `baseline`, and tagged
/// kInfeasible when it exceeds options.max_delay_overhead (only seed and
/// max_delay_overhead of `options` are read). A pure function of its
/// arguments.
BuyerEdition make_edition(const Netlist& golden, const CodebookSource& book,
                          std::size_t buyer, const Baseline& baseline,
                          const StaticTimingAnalyzer& sta,
                          const PowerAnalyzer& power,
                          const BatchOptions& options);

/// Stamps one edition per codeword of `book` (whose locations must have
/// been found on `golden`). See the determinism contract above.
BatchResult batch_fingerprint(const Netlist& golden, const CodebookSource& book,
                              const StaticTimingAnalyzer& sta,
                              const PowerAnalyzer& power,
                              const BatchOptions& options = {});

struct BatchCecOptions {
  ThreadPool* pool = nullptr;
  /// Shared budget across all checks (per-edition granularity, like
  /// BatchOptions::budget). Editions never checked return
  /// Outcome::exhausted with no value.
  const Budget* budget = nullptr;
  /// Per-check options. sat_conflict_limit is the conflict quota of each
  /// session check and of its escalation alike; the rest configures the
  /// escalation. The simulation seed is re-derived per edition from
  /// BuyerEdition::seed, so verdicts do not depend on which worker ran
  /// the check.
  BudgetedCecOptions cec;
};

/// Checks every stamped edition against the golden netlist. Editions that
/// were never stamped (BuyerEdition::status == kExhausted) are reported
/// as exhausted outcomes without running a check. The returned vector is
/// index-aligned with `editions`.
///
/// Editions are chunked into shared-miter IncrementalCecSessions of 16
/// consecutive buyer indices — a pure function of the index, never of
/// the pool size, so verdicts are identical at any thread count. A check
/// that exhausts cec.sat_conflict_limit escalates to
/// verify_equivalence_budgeted under the same limit, whose simulation
/// fallback and confidence accounting then apply.
std::vector<Outcome<CecResult>> batch_verify_equivalence(
    const Netlist& golden, const std::vector<BuyerEdition>& editions,
    const BatchCecOptions& options = {});

}  // namespace odcfp
