// Shard geometry and on-disk layout of a fingerprinting run.
//
// Every shipped order lives in one `run_dir`, whether a supervisor
// shards it across worker processes (src/dist/supervisor.*), the
// daemon runs it in-process as a one-shard run (src/service/server.*,
// `state/runs/req_<n>`), or a library caller runs it as shard 0
// (examples/buyer_batch):
//
//   run_dir/run.spec          — the run's full configuration (RunSpec),
//                               written (or cross-checked) once before
//                               any shard runs, so every process rebuilds
//                               the golden netlist and the codebook
//                               itself (dist::RunInputs) instead of
//                               trusting bytes shipped over a pipe.
//   run_dir/leases.odcfp      — the supervisor's lease journal
//                               (src/dist/lease.hpp). A run without one
//                               (a daemon request) has as its shards the
//                               shard journals on disk.
//   run_dir/shard_<i>.journal — one write-ahead journal per shard
//                               (src/common/journal.hpp); whoever stamps
//                               shard i (src/dist/runner.hpp) appends
//                               lifecycle and heartbeat records here. It
//                               is the only record of the shard's
//                               progress (src/dist/status.hpp reads it).
//   run_dir/editions/         — shared artifact directory; every shard
//                               publishes `edition_<buyer>.blif` via
//                               atomic_io into this one directory.
//   run_dir/merged/           — deterministic merged outputs of a
//                               supervised run (src/dist/merge.hpp).
//   run_dir/run_status.json   — a supervised run's final roll-up,
//                               written once, after the merge.
//   run_dir/traces/           — Chrome-trace capture of the run (when
//                               DistOptions::capture_traces):
//                               `supervisor.json` plus one
//                               `shard_<i>_epoch_<e>.json` per grant,
//                               each flushed incrementally so a SIGKILL
//                               loses at most the tail. Stitched into
//                               one timeline by src/dist/stitch.*.
//
// run.spec is the one identity of a run. Every journal in a run dir —
// the lease journal and each shard journal — carries the same header,
// run_header(spec) (the GLOBAL buyer count, not the shard's), and a
// journal belongs to the run exactly when its header equals that: the
// runner, the supervisor and the merge each compare against it.
//
// Determinism: shard_ranges() is a pure function of (num_buyers,
// num_shards); per-buyer seeds derive from the global batch seed and the
// buyer index only (src/fingerprint/batch.hpp), so the set of artifact
// bytes is independent of how buyers are sharded.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/budget.hpp"
#include "common/record_log.hpp"

namespace odcfp::dist {

/// How a run derives its buyers' codewords. The two kinds emit different
/// codewords for the same seed (src/fingerprint/streaming_codebook.hpp).
enum class CodebookKind : std::uint8_t {
  kMaterialized,  ///< Codebook: sharded runs.
  kStreaming,     ///< StreamingCodebook: daemon requests.
};

/// Everything a process needs to rebuild the run's inputs from scratch.
/// The golden netlist is reconstructed via make_benchmark(circuit) — a
/// deterministic function of the name — and the codebook via
/// find_locations plus the codebook of `codebook`'s kind over
/// (num_buyers, codebook_seed), so every process derives bit-identical
/// inputs without any netlist bytes crossing the process boundary.
struct RunSpec {
  std::string circuit;            ///< Benchmark name (make_benchmark).
  std::uint64_t num_buyers = 0;   ///< Global codebook size.
  std::uint64_t codebook_seed = 0;
  std::uint64_t batch_seed = 0;   ///< BatchOptions::seed.
  /// BatchOptions::max_delay_overhead, round-tripped bit-exactly (the
  /// file stores the raw IEEE-754 bits, not a decimal rendering).
  double max_delay_overhead = 0;
  std::string label;              ///< Journal header label.
  /// Stored (as `codebook=streaming`) only for a streaming spec, so a
  /// materialized spec's bytes and run_spec_crc predate the field.
  CodebookKind codebook = CodebookKind::kMaterialized;
};

/// Writes `spec` to `path` (atomic publish): a magic line, then one
/// CRC'd "S" record (record_log::write_one).
Outcome<bool> write_run_spec(const std::string& path, const RunSpec& spec);

/// Reads a run.spec back; kMalformedInput on framing/CRC damage.
Outcome<RunSpec> read_run_spec(const std::string& path);

/// Writes `spec` as `run_dir`'s run.spec (making the dir), or, when one
/// is already there, requires it to be the same spec: a run dir never
/// mixes two runs. A spec with no buyers is kMalformedInput, and nothing
/// is written.
Outcome<bool> pin_run_spec(const std::string& run_dir, const RunSpec& spec);

/// CRC-32 of the spec's canonical wire payload: every field, so two
/// specs that differ anywhere (both seeds included) are two runs.
std::uint32_t run_spec_crc(const RunSpec& spec);

/// The header of every journal of the run: batch seed, buyers,
/// run_spec_crc(spec) as its config checksum, and the label.
JournalHeader run_header(const RunSpec& spec);

/// Partitions [0, num_buyers) into at most `num_shards` contiguous
/// half-open ranges, near-even (first `num_buyers % shards` ranges get
/// the extra buyer). Empty ranges are never returned: with fewer buyers
/// than shards the result has num_buyers single-buyer ranges. Pure
/// function of its arguments — every process computes the same split.
std::vector<std::pair<std::size_t, std::size_t>> shard_ranges(
    std::size_t num_buyers, std::size_t num_shards);

// ---- run_dir layout helpers ----

std::string run_spec_path(const std::string& run_dir);
std::string lease_journal_path(const std::string& run_dir);
std::string shard_journal_path(const std::string& run_dir,
                               std::size_t shard);
std::string editions_dir(const std::string& run_dir);
/// `editions/edition_<buyer>.blif`, relative to the run dir: the name a
/// commit record and merged/verification.json give the edition.
std::string edition_relpath(std::size_t buyer);
/// run_dir + "/" + edition_relpath(buyer): the one place run_shard
/// publishes a buyer's edition. Resume and merge look for it there, so a
/// run dir can be moved or copied.
std::string edition_path(const std::string& run_dir, std::size_t buyer);
std::string merged_dir(const std::string& run_dir);
std::string traces_dir(const std::string& run_dir);
std::string supervisor_trace_path(const std::string& run_dir);
/// One trace file per (shard, epoch): a regrant's epoch-2 worker never
/// overwrites the evidence of the epoch-1 worker it replaced.
std::string shard_trace_path(const std::string& run_dir, std::size_t shard,
                             std::uint64_t epoch);

}  // namespace odcfp::dist
