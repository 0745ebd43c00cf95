// Lease-based supervision of a sharded multi-process fingerprinting run.
//
// run_supervised_batch partitions the run's buyers into contiguous
// shards (shard_ranges), spawns one worker process per shard
// (tools/odcfp_worker), and babysits them to completion:
//
//   grant    — the supervisor spawns a worker for an unassigned shard
//              and durably records {shard, epoch, pid, granted} in the
//              lease journal. Epochs start at 1 and increment on every
//              grant of a shard, so a record from a stale holder is
//              recognizable.
//   monitor  — each worker appends lifecycle + heartbeat records to its
//              shard journal, heartbeats from the moment the journal
//              opens (before the worker builds the order); the
//              supervisor watches the FILE SIZE grow. Any durable append
//              is proof of life, so a slow worker making progress is
//              never confused with a wedged one.
//   revoke   — a worker that exits non-zero, dies by signal, or misses
//              the heartbeat deadline (no journal growth for
//              heartbeat_timeout_ms) has its lease revoked: the
//              supervisor SIGKILLs the pid (wedged workers don't get to
//              finish), records the revocation, and re-grants the shard
//              to a fresh worker at epoch+1, which resumes from the
//              shard journal via the batch layer's recovery protocol.
//   done     — a worker exiting 0 completes its lease; the merge layer
//              later re-verifies every buyer of the range anyway.
//   merge    — once every shard is done, merge_run publishes the
//              deterministic run-level artifacts, a terminal `merged`
//              record closes the lease journal, and run_status.json is
//              written, once.
//
// One identity: the lease journal and every shard journal carry
// run_header(spec) (dist/shard.hpp), and the supervisor, each worker and
// the merge refuse a journal whose header differs.
//
// Supervisor crash-safety: the lease journal is the supervisor's WAL. A
// supervisor SIGKILLed at any instant can be rerun with the same
// arguments: it replays the lease journal, SIGKILLs any recorded holder
// that survived (belt and braces — workers carry PDEATHSIG(SIGKILL), so
// the kernel already reaped them when the supervisor died), revokes
// their leases, and re-grants unfinished shards. Workers are spawned
// only AFTER their shard's previous holder is provably gone, so two
// workers never hold the same shard journal.
//
// Chaos hooks (fault.hpp sites, driven by the chaos suite):
//   dist.tick            — once per supervision loop iteration;
//   dist.lease.grant     — before each grant record lands;
//   dist.heartbeat.lost  — when a heartbeat deadline trips;
//   dist.lease.append    — every lease journal append (in lease.cpp);
//   dist.merge.publish   — before each merged file publish (merge.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/budget.hpp"
#include "dist/shard.hpp"

namespace odcfp::dist {

// Worker exit protocol (tools/odcfp_worker reports, the supervisor
// dispatches). Anything else — including death by signal — is treated
// as a crash and the lease is re-granted.
inline constexpr int kWorkerExitOk = 0;          ///< Range committed.
inline constexpr int kWorkerExitResumable = 3;   ///< Pending work left.
inline constexpr int kWorkerExitMalformed = 4;   ///< Bad spec/journal.
inline constexpr int kWorkerExitInfeasible = 5;  ///< Permanent failure.

struct DistOptions {
  /// Run directory (created if missing); see shard.hpp for the layout.
  std::string run_dir;
  /// Path of the worker binary (tools/odcfp_worker).
  std::string worker_binary;
  /// Requested shard count (clamped to the buyer count).
  std::size_t num_shards = 1;
  /// ThreadPool size inside each worker (passed as --threads).
  std::size_t worker_threads = 1;
  /// Worker heartbeat period (passed as --heartbeat-ms).
  std::int64_t heartbeat_interval_ms = 25;
  /// A leased shard whose journal does not grow for this long is
  /// declared wedged and its worker killed. Must comfortably exceed
  /// heartbeat_interval_ms plus the cost of one edition.
  std::int64_t heartbeat_timeout_ms = 10'000;
  /// Supervision loop poll period.
  std::int64_t poll_interval_ms = 5;
  /// Total re-grants allowed across the whole run (a crashing worker
  /// burns one per respawn). Exceeding this fails the run kExhausted —
  /// a persistently dying worker is a bug, not bad luck.
  std::size_t max_regrants = 16;
  /// Optional overall budget; exhaustion kills all workers and returns
  /// kExhausted (the run stays resumable).
  const Budget* budget = nullptr;
  /// Extra argv appended to every worker invocation (the chaos suite
  /// injects --chaos-* flags here).
  std::vector<std::string> extra_worker_args;
  /// Arms run-scoped trace capture: the supervisor records its own
  /// timeline to `run_dir/traces/supervisor.json` (flushed every
  /// heartbeat_interval_ms) and every worker is granted with
  /// `--trace traces/shard_<s>_epoch_<e>.json` so each grant leaves an
  /// incrementally flushed, SIGKILL-surviving trace file. Stitch the
  /// results with src/dist/stitch.* / tools/odcfp_report. The
  /// supervisor-side capture is skipped (workers still record) when the
  /// embedding process already records or armed a trace of its own —
  /// e.g. ODCFP_TRACE is set — so run capture never steals it.
  bool capture_traces = false;
};

struct DistResult {
  /// kOk: all shards done and merged. kExhausted: budget/regrant cap hit
  /// (rerun to resume). kMalformedInput: configuration or journal
  /// inconsistency. kInfeasible: a worker reported a permanent
  /// per-buyer failure.
  Status status = Status::kOk;
  std::string message;
  std::size_t shards = 0;
  std::size_t shards_done = 0;
  std::size_t workers_spawned = 0;
  /// Workers SIGKILLed by the supervisor (heartbeat deadline misses).
  std::size_t workers_killed = 0;
  /// Leases re-granted after a revocation (crash or wedge recovery).
  std::size_t regrants = 0;
  std::size_t buyers_committed = 0;
  /// Final artifact path per buyer (set only on kOk).
  std::vector<std::string> artifacts;
  /// The three merged files (set only on kOk): codebook.txt,
  /// verification.json, telemetry.json.
  std::vector<std::string> merged_outputs;
  /// run_status.json path (set only on kOk, once the deterministic
  /// roll-up has been published after the merge).
  std::string run_status;
  std::string lease_journal;
};

/// Runs `spec` sharded under supervision. Idempotent: rerunning after
/// any crash — worker or supervisor — resumes from the journals and
/// converges to the same merged artifacts.
DistResult run_supervised_batch(const RunSpec& spec,
                                const DistOptions& options);

}  // namespace odcfp::dist
