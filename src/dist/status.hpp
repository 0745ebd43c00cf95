// Live status plane of a sharded run: per-shard snapshots, the
// aggregated run_status.json, and the primary-source inspector behind
// tools/odcfp_status.
//
// Two kinds of status exist and must not be confused:
//
//  * LIVE status — written while the run is in flight. Each worker
//    overwrites `run_dir/status_<shard>.snap` (one CRC'd record,
//    record_log::write_one) on every heartbeat; the supervisor
//    folds the snapshots into `run_dir/run_status.json` with per-shard
//    rates, heartbeat ages, and stall flags. Live status is advisory
//    and schedule-dependent by nature — rates and ages are wall-clock.
//    Every write is a whole-file atomic publish, so readers (and the
//    supervisor) can never observe a torn snapshot; a snapshot damaged
//    by a mid-publish SIGKILL simply fails its CRC and is ignored.
//
//  * FINAL status — after the deterministic merge, the supervisor
//    overwrites run_status.json with a roll-up that is a pure function
//    of (buyer count, artifact bytes): no shard geometry, no rates, no
//    wall times. Like merged/telemetry.json it is byte-identical for
//    ANY shard count, thread count, and crash schedule — the chaos
//    suite enforces this.
//
// inspect_run_dir() composes a RunStatusView from primary sources only
// (run.spec, the lease journal, shard journals, snapshots) — never from
// run_status.json itself — so it works identically on a live run, a
// crashed one, and a finished one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/budget.hpp"
#include "common/metrics.hpp"
#include "dist/lease.hpp"

namespace odcfp::dist {

/// One worker's self-reported progress, as published to its
/// `status_<shard>.snap`. Counts are cumulative over the worker's buyer
/// range; the histogram is this PROCESS's edition-latency samples (a
/// delta, not a run-wide merge — epochs overwrite, they never sum).
struct ShardStatus {
  std::uint64_t shard = 0;
  std::uint64_t epoch = 0;
  std::uint64_t pid = 0;
  std::uint64_t range_begin = 0;
  std::uint64_t range_end = 0;
  /// Buyers of the range with a durable artifact (includes recovered).
  std::uint64_t committed = 0;
  /// Committed buyers recovered from the journal rather than stamped.
  std::uint64_t recovered = 0;
  /// Wall time since this worker entered its stamping loop.
  std::uint64_t elapsed_ms = 0;
  /// Stamping rate of THIS epoch in milli-editions/sec:
  /// (committed - recovered) * 1e6 / elapsed_ms. 0 while elapsed is 0.
  std::uint64_t eps_milli = 0;
  /// 1 once the worker's stamping loop has joined (its last snapshot).
  std::uint64_t done = 0;
  /// Anchored wall time (common/clock.*) when the worker composed this
  /// snapshot; 0 = unknown (snapshot predates the field). Places the
  /// snapshot on the stitched cross-process timeline; the live/final
  /// JSON renders never include it.
  std::uint64_t wall_ns = 0;
  /// Per-edition embed latency of this epoch (batch.edition_ns).
  metrics::HistData edition_ns;

  bool operator==(const ShardStatus&) const = default;
};

// ---- run_dir layout ----

std::string status_snapshot_path(const std::string& run_dir,
                                 std::size_t shard);
std::string run_status_path(const std::string& run_dir);

/// Atomically publishes `status` to `path` (magic line + one CRC'd 'S'
/// record). Chaos site "dist.status.publish" fires before the write, so
/// the SIGKILL-mid-publish schedules can target exactly this moment.
Outcome<bool> write_status_snapshot(const std::string& path,
                                    const ShardStatus& status);

/// Reads a snapshot back. kMalformedInput on any framing or CRC damage
/// (including a torn tail) — callers treat that as "no snapshot yet".
Outcome<ShardStatus> read_status_snapshot(const std::string& path);

// ---- aggregated view ----

/// One shard's row in the aggregated run status.
struct ShardStatusView {
  std::size_t shard = 0;
  ShardState state = ShardState::kUnassigned;
  std::uint64_t epoch = 0;
  /// Last published self-report; meaningful only when have_snapshot.
  ShardStatus snap;
  bool have_snapshot = false;
  /// Milliseconds since the shard journal last grew (proof of life);
  /// -1 when unknown (no journal yet).
  std::int64_t heartbeat_age_ms = -1;
  /// Leased but silent for longer than the stall threshold.
  bool stalled = false;
};

struct RunStatusView {
  /// "running" (shards outstanding), "done" (merge record landed), or
  /// "idle" (no lease activity — e.g. a run dir before any grant).
  std::string state = "idle";
  std::uint64_t buyers = 0;     ///< Global buyer count (run.spec).
  std::uint64_t committed = 0;  ///< Sum of the shards' committed counts.
  std::vector<ShardStatusView> shards;
};

/// Renders the LIVE aggregate (schedule-dependent: rates, ages, stall
/// flags). Deterministic serialization of whatever the view holds.
std::string render_run_status_json(const RunStatusView& view);

/// Renders the FINAL deterministic roll-up: a pure function of the
/// buyer count and the per-buyer artifact sizes (merge pass 2), with an
/// artifact-size histogram and its p50/p90/p99. Contains no shard
/// geometry and no wall-clock values, so its bytes are invariant to
/// sharding, threading, and crash schedules.
std::string render_final_run_status_json(
    std::uint64_t buyers, const std::vector<std::uint64_t>& artifact_sizes);

/// Renders the view as a fixed-width text table (tools/odcfp_status).
std::string render_run_status_table(const RunStatusView& view);

/// Builds a RunStatusView from the run dir's primary sources: run.spec
/// (buyers), the lease journal (shard states, epochs, merge record),
/// `status_<shard>.snap` files (progress), and shard-journal mtimes
/// (heartbeat age). Unreadable or torn inputs degrade to "unknown",
/// never to an error — the inspector must work on a half-dead run. A
/// leased shard silent for >= stall_threshold_ms is flagged stalled.
RunStatusView inspect_run_dir(const std::string& run_dir,
                              std::int64_t stall_threshold_ms = 5'000);

}  // namespace odcfp::dist
