// Status plane of a run: the run-dir loader behind tools/odcfp_report,
// and the final run_status.json of a supervised run.
//
// A shard's journal is the only record of its progress. load_run()
// reads a run dir's records once — run.spec, the lease journal if any,
// and every shard journal on disk — and takes each per-shard number
// from the journal's replay: the buyers whose latest phase is
// `committed`, the commit rate, and each commit's edition latency. It
// is the one reader behind analyze_run() (dist/report.*) and
// stitch_run() (dist/stitch.*), and it renders nothing: RunReport is
// the one rendered view of a run. A run without a lease journal, such
// as a daemon request or a library run, has as its shards the shard
// journals on disk, so both read such a dir like any other run dir.
// load_run() reads no clock, so it reads a live run, a crashed one and
// a finished one alike.
//
// run_status.json is written once, by the supervisor after its merge: a
// roll-up that is a pure function of (buyer count, artifact bytes) — no
// shard geometry, no rates, no wall times. Like merged/telemetry.json
// it is byte-identical for ANY shard count, thread count, and crash
// schedule — the chaos suite enforces this. Nothing reads it back: the
// readers above compose from primary sources.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/journal.hpp"
#include "dist/lease.hpp"
#include "dist/shard.hpp"

namespace odcfp::dist {

// ---- run_dir layout ----

std::string run_status_path(const std::string& run_dir);

// ---- aggregated view ----

/// One commit as its shard journal times it: from the buyer's last
/// wall-stamped `embedding` record to its `committed` record.
struct EditionSpan {
  std::uint64_t buyer = 0;
  std::uint64_t begin_wall_ns = 0;
  std::uint64_t end_wall_ns = 0;
};

/// One shard of a run as its run dir records it.
struct ShardStatusView {
  std::size_t shard = 0;
  ShardState state = ShardState::kUnassigned;
  /// Its journal replayed (empty when absent or unreadable). The numbers
  /// below are read from it; records with wall 0 carry no time.
  JournalReplay journal;
  /// Buyers whose latest phase is `committed`.
  std::uint64_t committed = 0;
  /// Committed records per second, in milli-editions/sec, between the
  /// first and the last wall-stamped lifecycle record; 0 without two
  /// distinct wall times.
  std::uint64_t eps_milli = 0;
  /// Wall times of the first and the last wall-stamped lifecycle record
  /// (0 without one): a run without leases takes its makespan from them.
  std::uint64_t first_wall_ns = 0;
  std::uint64_t last_wall_ns = 0;
  /// Every commit in journal order; the report's edition latency and
  /// the stitcher's per-buyer spans.
  std::vector<EditionSpan> editions;
};

struct RunStatusView {
  /// "done": the merge record landed or, in a run without a lease
  /// journal, every buyer of the spec is committed. "running": the lease
  /// journal holds records or, without one, a shard journal exists.
  /// "idle": neither, or a lease journal exists but does not replay.
  std::string state = "idle";
  std::uint64_t buyers = 0;     ///< Global buyer count (run.spec).
  /// The shards' committed counts summed; every buyer once done.
  std::uint64_t committed = 0;
  /// Every shard the lease journal names, then on up while a shard
  /// journal exists on disk.
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
/// shard journal on disk. Unreadable or torn inputs degrade to
/// "absent", never to an error, and no clock is read.
RunStatusView load_run(const std::string& run_dir);

/// Renders run_status.json, the supervisor's roll-up after its merge: a
/// pure function of the buyer count and the per-buyer artifact sizes
/// (merge pass 2), with an
/// artifact-size histogram and its p50/p90/p99. Contains no shard
/// geometry and no wall-clock values, so its bytes are invariant to
/// sharding, threading, and crash schedules.
std::string render_final_run_status_json(
    std::uint64_t buyers, const std::vector<std::uint64_t>& artifact_sizes);

}  // namespace odcfp::dist
