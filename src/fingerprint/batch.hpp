// Multi-buyer batch edition pipeline.
//
// The paper's distribution model (§III.E) gives every buyer a distinct
// fingerprinted copy of the same golden netlist. Stamping the copies is
// embarrassingly parallel — each edition is an independent clone + embed +
// measure — so this module fans the per-buyer work across a ThreadPool:
//
//  * batch_fingerprint       — stamp one edition per codeword of a
//    Codebook. Each worker embeds the whole codeword into its own netlist
//    clone, then times the edition with one full STA pass, which yields
//    both its critical delay and its delay overhead.
//  * batch_verify_equivalence — fan CEC of all editions against the
//    golden netlist across the pool in shared-miter
//    IncrementalCecSessions, escalating a check that exhausts its quota
//    to verify_equivalence_budgeted.
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
#include <functional>
#include <string>
#include <vector>

#include "common/budget.hpp"
#include "common/retry.hpp"
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

  /// Shared deadline / step / cancellation caps for the whole batch,
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

// ------------------------------------------------- crash-safe resume

/// Progress of one resumable batch run, as seen at a heartbeat. Counts
/// are cumulative over the run's buyer range, so committed/total is a
/// completion fraction and deltas between reports give a rate.
struct BatchProgress {
  std::size_t range_begin = 0;
  std::size_t range_end = 0;
  /// Buyers of this range whose artifact is committed (including those
  /// recovered from the journal at startup).
  std::size_t committed = 0;
  /// Committed buyers that were recovered rather than stamped here.
  std::size_t recovered = 0;
  /// Wall time since batch_fingerprint_resumable was entered.
  std::int64_t elapsed_ms = 0;
  /// True exactly once, after the stamping loop joins (the last report).
  bool final = false;
};

struct ResumeOptions {
  /// Seed / pool / budget / delay constraint, exactly as for
  /// batch_fingerprint. On resume the journal header's seed is
  /// authoritative (per-buyer seeds re-derive from it), so the editions
  /// of a resumed run can never diverge from the run that wrote the
  /// journal; a differing batch.seed is logged and overridden.
  BatchOptions batch;
  /// Directory receiving one `edition_<buyer>.blif` per committed buyer
  /// (created if missing; stale `*.tmp.*` files from crashed writers are
  /// swept on entry).
  std::string artifact_dir;
  /// Transient-failure policy per buyer (alloc faults, injected or real
  /// I/O faults, a per-buyer sub-budget returning kExhausted). The
  /// policy's seed is XOR-mixed with the buyer's derived seed, so
  /// backoff schedules are per-buyer deterministic at any thread count.
  RetryPolicy retry;
  /// Human label stored in the journal header (e.g. the circuit name).
  std::string label;

  // ---- sharded execution (src/dist/) ----

  /// Half-open buyer range this process stamps. range_end == 0 means
  /// "through the last buyer", so the default {0, 0} covers the whole
  /// codebook. A sharded run gives each worker process its own range
  /// (and its own journal file); the journal header still pins the
  /// GLOBAL buyer count and config checksum, so every shard journal of
  /// one run is mutually consistent and the merge layer can cross-check
  /// them. Buyers outside the range are returned as kExhausted slots but
  /// never counted as pending.
  std::size_t range_begin = 0;
  std::size_t range_end = 0;
  /// When > 0, a sidecar thread appends a liveness heartbeat record to
  /// the journal every this-many milliseconds (Journal::heartbeat) for
  /// the duration of the run, so an external supervisor watching the
  /// journal can distinguish a wedged worker from a slow one. 0 (the
  /// default) spawns nothing.
  std::int64_t heartbeat_interval_ms = 0;
  /// Called from the heartbeat thread once per heartbeat interval with
  /// the run's cumulative progress, plus exactly once (final = true)
  /// from the calling thread after the stamping loop joins. The dist
  /// layer wires this to a status-snapshot publisher; keep the callback
  /// cheap and non-throwing. Never invoked concurrently with itself.
  /// With heartbeat_interval_ms <= 0 only the final report fires.
  std::function<void(const BatchProgress&)> progress;
};

struct ResumableBatchResult {
  /// Same shape as batch_fingerprint's result. Buyers recovered from the
  /// journal (already committed by a previous run) carry status kOk with
  /// an EMPTY netlist and zero overheads — their bytes live at
  /// artifacts[buyer]; re-reading them is the caller's choice.
  BatchResult batch;
  /// Final artifact path per buyer ("" while not committed).
  std::vector<std::string> artifacts;
  /// CRC-32 of each committed artifact, as its commit record pins it
  /// (0 while not committed).
  std::vector<std::uint32_t> artifact_crcs;
  /// Buyers skipped because the journal proved them committed (artifact
  /// present with the recorded checksum).
  std::size_t recovered = 0;
  /// Total transient retries absorbed across all buyers.
  std::size_t retries = 0;
  std::string journal_path;
  /// kOk: every buyer in this process's range committed. kExhausted:
  /// budget died or transient
  /// faults outlasted the retry policy — rerun with the same journal to
  /// continue. kMalformedInput: the journal belongs to a different run
  /// or is corrupt mid-file (message explains; nothing was stamped).
  Status status = Status::kOk;
  std::string message;
};

/// Crash-safe batch_fingerprint: records per-buyer lifecycle (queued ->
/// embedding -> verified -> committed) in a write-ahead journal at
/// `journal_path` and writes every artifact atomically, so the process
/// can be SIGKILLed at any instant and rerun with the same arguments to
/// finish the batch — committed buyers are skipped, their artifacts
/// byte-identical to an uninterrupted run at any thread count. Commit
/// protocol per buyer: embed + verify the extracted code matches the
/// codeword, atomically publish the BLIF artifact, then journal
/// `committed` with the artifact's crc32. A `committed` record whose
/// artifact is missing or fails its checksum is demoted and re-stamped.
ResumableBatchResult batch_fingerprint_resumable(
    const std::string& journal_path, const Netlist& golden,
    const CodebookSource& book, const StaticTimingAnalyzer& sta,
    const PowerAnalyzer& power, const ResumeOptions& options);

}  // namespace odcfp
