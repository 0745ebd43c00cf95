// Deterministic merge of a sharded run's per-shard state into the final
// run-level artifacts.
//
// After every shard is done, the supervisor calls merge_run to verify
// cross-shard consistency and publish three files into run_dir/merged/:
//
//   codebook.txt       — the full codebook (one line per buyer, the
//                        embedded code rendered per location), plus the
//                        run geometry. Reconstructed from the RunSpec,
//                        never from worker output.
//   verification.json  — one entry per buyer: the artifact's run-dir-
//                        relative path, its byte count, and its CRC-32 as
//                        re-read from disk at merge time (which must
//                        match the CRC the shard journal committed).
//   telemetry.json     — a telemetry::Node tree (common/telemetry.hpp
//                        JSON schema) holding only state-derived
//                        counters: buyers, artifact bytes, codeword
//                        geometry.
//
// Determinism contract: all three files are byte-identical for ANY shard
// count and ANY crash/kill/respawn schedule, and identical to a
// single-process (1-shard) run. That is why the merge rejects anything
// schedule-dependent — retry counts, respawn counts, heartbeat tallies,
// wall-clock durations (total_ns stays 0) — and why artifact paths are
// recorded relative to run_dir (two runs in different directories still
// produce byte-equal merged files).
//
// The merge trusts nothing it can cross-check: every shard journal must
// carry the run's header, run_header(spec) (dist/shard.hpp); every buyer
// of every range must be committed; every artifact must re-read, from this run
// dir's editions/ (never from the path a commit record names, so a
// moved or copied run dir merges its own bytes), with exactly the CRC
// its commit record pinned. Any mismatch fails the merge with a
// diagnostic naming the shard and buyer.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/budget.hpp"
#include "dist/shard.hpp"
#include "fingerprint/codewords.hpp"

namespace odcfp::dist {

struct MergeResult {
  /// kOk: merged/ published. kMalformedInput: cross-shard inconsistency
  /// (message names it). kExhausted: a buyer is not committed yet, or an
  /// I/O failure writing the merged files.
  Status status = Status::kOk;
  std::string message;
  std::size_t buyers = 0;
  std::uint64_t artifact_bytes = 0;
  /// Byte size of each buyer's artifact, index-aligned with the buyers
  /// (set only on kOk). State-derived — feeds the final run_status
  /// roll-up's artifact-size histogram.
  std::vector<std::uint64_t> artifact_sizes;
  /// Paths of the published files (codebook, verification, telemetry).
  std::vector<std::string> outputs;
};

/// Verifies all shards of `run_dir` (per `ranges`) and publishes the
/// merged artifacts. `book` must be the codebook RunInputs rebuilt
/// from `spec` (the caller already has it; rebuilding here would repeat
/// the location scan).
MergeResult merge_run(
    const std::string& run_dir, const RunSpec& spec,
    const CodebookSource& book,
    const std::vector<std::pair<std::size_t, std::size_t>>& ranges);

}  // namespace odcfp::dist
