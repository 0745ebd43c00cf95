// Deterministic cross-process trace stitching for sharded runs.
//
// A supervised run (src/dist/supervisor.*) with capture_traces leaves
// behind per-process Chrome trace files — run_dir/traces/supervisor.json
// plus one shard_<s>_epoch_<e>.json per lease grant — each timestamped
// on its own process's steady clock and each carrying its clock anchor
// (src/common/clock.*) in otherData. stitch_run merges them, together
// with spans synthesized from the run's PRIMARY sources (lease
// grant→revoke/done intervals, shard-journal per-buyer transitions),
// into one Chrome/Perfetto JSON timeline:
//
//   pid 1      — the supervisor: a synthesized "run" track (tid 0) from
//                the lease journal, then the supervisor's own recorded
//                tracks (tids offset by 1000);
//   pid 2 + s  — shard s: tid 0 "leases" (one X span per grant→close
//                interval, open leases run to the last recorded wall),
//                tid 1 "buyers" (embedding→committed spans and
//                verified/failed instants from the shard journal: every
//                commit of the shard), then each epoch's worker trace
//                with tids remapped to epoch*65536 + 16 + original.
//
// Timestamp alignment is pure record math: every source timestamp is
// converted to anchored wall time using the anchor RECORDED in that
// source, then rebased against origin_wall_ns — the minimum wall time
// observed across all inputs. stitch_run never reads a clock, so the
// stitched bytes are a deterministic function of the input files:
// byte-identical across repeated stitches and across any ThreadPool
// size (parsing parallelizes per file; assembly is a single ordered
// pass).
//
// Loss is explicit, never silent: each shard's accounting reports
// granted epochs whose trace file is missing or unparseable
// (missing_traces — e.g. a worker SIGKILLed before its first flush) and
// the events the recorder itself dropped on overflow (dropped_events,
// summed from each file's own counter). Records whose wall= field
// predates the wire addition (wall_ns == 0) are skipped rather than
// misplaced at the epoch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/budget.hpp"
#include "common/parallel.hpp"

namespace odcfp::dist {

struct StitchOptions {
  /// Parses trace files in parallel when set; the stitched bytes are
  /// identical for any pool size (including none).
  ThreadPool* pool = nullptr;
};

/// Per-shard stitch accounting — the "what did we actually have"
/// companion to the timeline itself.
struct ShardStitchInfo {
  std::size_t shard = 0;
  std::uint64_t epochs_granted = 0;  ///< Highest epoch ever granted.
  std::uint64_t traces_present = 0;  ///< Parseable per-epoch trace files.
  std::uint64_t missing_traces = 0;  ///< Granted epochs without one.
  std::uint64_t events = 0;          ///< Worker events re-emitted.
  std::uint64_t dropped_events = 0;  ///< Recorder overflow drops (summed).
  std::uint64_t flushes = 0;         ///< Incremental flushes (summed).
  std::uint64_t lease_spans = 0;     ///< Synthesized lease intervals.
  /// Where the newest parseable epoch's trace origin sits relative to
  /// the stitched origin (anchored-wall delta). Meaningful only when
  /// have_anchor; bounded by the run's makespan when clocks are sane.
  std::int64_t anchor_offset_ns = 0;
  bool have_anchor = false;
};

struct StitchResult {
  /// kOk whenever a timeline could be produced (even for a crashed or
  /// still-live run); kMalformedInput when the run dir has neither a
  /// readable lease journal nor, lacking any lease journal, a shard
  /// journal to anchor the reconstruction on.
  Status status = Status::kOk;
  std::string message;
  /// The stitched Chrome trace JSON. Byte-identical given identical
  /// primary sources.
  std::string json;
  /// The stitched timeline's wall origin: the minimum anchored wall
  /// time over every lease/journal record and trace anchor (ts 0).
  std::uint64_t origin_wall_ns = 0;
  std::uint64_t total_events = 0;  ///< Entries in traceEvents (incl. M).
  std::uint64_t dropped_events = 0;
  std::uint64_t missing_traces = 0;
  std::uint64_t lease_spans = 0;
  bool supervisor_trace = false;  ///< supervisor.json parsed.
  std::vector<ShardStitchInfo> shards;
};

/// Stitches `run_dir` (live, crashed, or finished; sharded, or a daemon
/// request with no lease journal). Reads only recorded data — load_run()
/// and trace files — never a clock.
StitchResult stitch_run(const std::string& run_dir,
                        const StitchOptions& options = {});

}  // namespace odcfp::dist
