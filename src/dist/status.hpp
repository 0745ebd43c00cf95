// Status plane of a run: per-shard snapshots, the aggregated
// run_status.json of a supervised run, and the run-dir loader behind
// tools/odcfp_status and tools/odcfp_report.
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
// load_run() reads a run dir's records once — run.spec, the lease
// journal if any, and every shard's journal and snapshot on disk — and is
// the one reader behind inspect_run_dir(), analyze_run() (dist/report.*)
// and stitch_run() (dist/stitch.*). A run without a lease journal, such
// as a daemon request, has as its shards the shard journals on disk, so
// all three read a request dir like any other run dir. inspect_run_dir()
// adds only the clock-derived heartbeat ages: it reads primary sources,
// never run_status.json itself, so it works identically on a live run, a
// crashed one, and a finished one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/budget.hpp"
#include "common/journal.hpp"
#include "common/metrics.hpp"
#include "dist/lease.hpp"
#include "dist/shard.hpp"

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

/// One shard of a run as its run dir records it, plus its heartbeat age
/// and stall flag, which only a clock tells (inspect_run_dir and the
/// supervisor fill those; load_run leaves them unknown).
struct ShardStatusView {
  std::size_t shard = 0;
  ShardState state = ShardState::kUnassigned;
  std::uint64_t epoch = 0;
  /// Last published self-report; meaningful only when have_snapshot.
  ShardStatus snap;
  bool have_snapshot = false;
  /// Its journal replayed (empty when absent or unreadable).
  JournalReplay journal;
  /// The snapshot's committed count, or with no snapshot the journal's.
  std::uint64_t committed = 0;
  /// Milliseconds since the shard journal last grew (proof of life);
  /// -1 when unknown (no journal yet).
  std::int64_t heartbeat_age_ms = -1;
  /// Leased but silent for longer than the stall threshold.
  bool stalled = false;
};

struct RunStatusView {
  /// "done": the merge record landed or, in a run without a lease
  /// journal, every buyer of the spec is committed. "running": the lease
  /// journal holds records or, without one, a shard journal exists.
  /// "idle": neither.
  std::string state = "idle";
  std::uint64_t buyers = 0;     ///< Global buyer count (run.spec).
  /// The shards' committed counts summed; every buyer once done.
  std::uint64_t committed = 0;
  /// Every shard the lease journal names, then on up while a shard
  /// journal or snapshot exists on disk.
  std::vector<ShardStatusView> shards;

  // The rest of what load_run read.
  bool have_spec = false;
  /// A lease journal exists and replays; its chains hold one entry per
  /// shard (empty ones without it).
  bool have_leases = false;
  LeaseChains chains;
  /// Why a lease journal that exists does not replay ("" otherwise).
  std::string lease_error;
};

/// Reads `run_dir` once: run.spec, the lease journal if any, and every
/// shard's journal and snapshot on disk. Unreadable or torn inputs
/// degrade to "absent", never to an error, and no clock is read.
RunStatusView load_run(const std::string& run_dir);

/// Renders the LIVE aggregate (schedule-dependent: rates, ages, stall
/// flags). Deterministic serialization of whatever the view holds; a
/// `lease_error` key appears only when the lease journal does not
/// replay.
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

/// load_run() plus shard-journal mtimes (heartbeat age): it works on a
/// live, a crashed and a finished run alike. A leased shard silent for
/// >= stall_threshold_ms is flagged stalled.
RunStatusView inspect_run_dir(const std::string& run_dir,
                              std::int64_t stall_threshold_ms = 5'000);

}  // namespace odcfp::dist
