// Causal report for run dirs (tools/odcfp_report): the one rendered
// view of a run.
//
// analyze_run answers both "what is the run doing right now" and "why
// did the run take as long as it did" — from primary sources only
// (run.spec, the lease journal if any, shard journals: load_run), so it
// works identically on a live run, a crashed one, and a finished one,
// sharded or a daemon request. It derives:
//
//  * per-shard progress: lease state, epochs, committed buyers and the
//    commit rate, each read from the lease and shard journals;
//  * the critical path: the shard whose lease chain ends last, with the
//    grant→regrant chain that explains the run's makespan (in a run
//    without a lease journal, such as a daemon request or a library run,
//    the shard whose journal ends last, and the makespan spans the shard
//    journals' wall-stamped records);
//  * per-shard edition latency (p50/p99 of each commit's time since its
//    buyer's last `embedding` record in the shard journal, as an
//    edition_ns histogram — integer bucket math, common/metrics.hpp);
//  * regrant and wedge cost: wall time burned inside lease intervals
//    that ended in revocation (work the run had to redo);
//  * anomaly flags: killed / wedged shards (from revocation details),
//    outlier latency (p99 > k x the run's median shard p99), heartbeat
//    gaps (max gap > 5x the shard's median gap), and — when a stitch
//    result is folded in — trace drops and missing trace files.
//
// Everything analyze_run derives is a pure function of the recorded
// bytes; wall-clock derived numbers (makespan, lease costs) are
// schedule-dependent by nature and are rendered for humans, never
// gated. Liveness — each shard journal's heartbeat age and the stall
// flag — needs a clock, so only read_liveness() fills it, and only the
// tool calls that; analyze_run leaves it unknown.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/budget.hpp"
#include "dist/lease.hpp"
#include "dist/stitch.hpp"

namespace odcfp::dist {

struct ReportOptions {
  /// A shard is flagged a latency outlier when its p99 edition latency
  /// exceeds latency_k times the median of all shards' p99s.
  double latency_k = 3.0;
};

struct ShardReportRow {
  std::size_t shard = 0;
  /// Lease state (done once a run without a lease journal is done).
  ShardState state = ShardState::kUnassigned;
  std::uint64_t epochs = 0;    ///< Highest epoch granted.
  std::uint64_t regrants = 0;  ///< Grants beyond the first.
  bool killed = false;  ///< A revocation detail names a death signal.
  bool wedged = false;  ///< A revocation detail names a missed heartbeat.
  bool open = false;    ///< Last lease has no close record.
  /// Buyers the shard journal shows committed.
  std::uint64_t committed = 0;
  /// Commit rate from the shard journal (ShardStatusView::eps_milli).
  std::uint64_t eps_milli = 0;
  std::uint64_t lease_ns = 0;   ///< Total wall time under lease.
  std::uint64_t lost_ns = 0;    ///< Lease time ending in revocation.
  std::uint64_t end_wall_ns = 0;  ///< When the shard's chain ended.
  bool have_latency = false;
  std::uint64_t p50_ns = 0;  ///< Edition latency (shard journal).
  std::uint64_t p99_ns = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t max_heartbeat_gap_ns = 0;
  std::uint64_t median_heartbeat_gap_ns = 0;
  /// Milliseconds since the shard journal last grew (proof of life); -1
  /// when unknown (no journal yet, or read_liveness not called).
  std::int64_t heartbeat_age_ms = -1;
  /// Leased and silent for at least the stall threshold (read_liveness).
  bool stalled = false;
  /// Folded from a StitchResult (fold_stitch); 0 until then.
  std::uint64_t trace_dropped = 0;
  std::uint64_t missing_traces = 0;
  /// Its grants in order (an open one runs to the last recorded wall).
  std::vector<LeaseInterval> chain;
};

struct RunReport {
  /// kOk whenever anything could be analyzed (idle, live, crashed, or
  /// finished dirs alike); kMalformedInput only when `run_dir` holds
  /// neither a readable run.spec nor a readable lease journal. The state
  /// of such a report is "idle".
  Status status = Status::kOk;
  std::string message;
  /// RunStatusView::lease_error: why the lease journal does not replay.
  /// The shard rows still come from the shard journals.
  std::string lease_error;
  /// RunStatusView::state: "idle", "running" (in flight — or crashed;
  /// the records cannot tell a live run from an abandoned one), "done".
  std::string state = "idle";
  std::uint64_t buyers = 0;
  /// The shards' committed counts summed; every buyer once done.
  std::uint64_t committed = 0;
  std::uint64_t makespan_ns = 0;  ///< First to last recorded wall time.
  /// The shard whose lease chain (without a lease journal: whose shard
  /// journal) ends last — the one the run's makespan waited on. SIZE_MAX
  /// when no shard had a timestamped lease or journal record.
  std::size_t critical_path_shard = SIZE_MAX;
  /// That chain's first grant (or first journal record) to its end.
  std::uint64_t critical_path_ns = 0;
  std::uint64_t regrant_events = 0;
  std::uint64_t lost_ns = 0;  ///< Total revoked-lease (redo) cost.
  std::vector<ShardReportRow> shards;
  /// Human-readable findings ("shard 0 killed (worker died by signal
  /// 9)", ...), in shard order then severity order within a shard.
  std::vector<std::string> anomalies;
};

/// Analyzes `run_dir` from primary sources. Never reads a clock and
/// never fails on a crashed or half-written run: unreadable inputs
/// degrade to unknowns (see RunReport::status for the one exception).
RunReport analyze_run(const std::string& run_dir,
                      const ReportOptions& options = {});

/// Fills each row's heartbeat_age_ms from its shard journal's mtime
/// against the wall clock now, and flags a leased shard silent for
/// >= stall_ms as stalled: the only clock-derived values of a report.
void read_liveness(const std::string& run_dir, std::int64_t stall_ms,
                   RunReport* report);

/// Folds a stitch's loss accounting (recorder drops, missing trace
/// files) into the report rows and anomaly list.
void fold_stitch(const StitchResult& stitch, RunReport* report);

/// Fixed-width human table: run summary, per-shard rows (a stalled one
/// flagged STALLED), the critical path chain, and the anomaly list.
std::string render_report_table(const RunReport& report);

/// Deterministic JSON ({"odcfp_run_report":1, ...}); key order fixed,
/// integers only (nanoseconds stay exact). A `lease_error` key appears
/// only when the lease journal does not replay.
std::string render_report_json(const RunReport& report);

}  // namespace odcfp::dist
