// The one runner behind every shipped order.
//
// A run dir's run.spec (dist/shard.hpp) determines its inputs, and
// RunInputs is the one rebuild of them: the worker process stamping a
// shard of a supervised run (tools/odcfp_worker), the supervisor before
// its merge (dist/supervisor.*), and the daemon running a request as
// shard 0 of `state/runs/req_<n>` (service/server.*) all build one.
//
// run_shard then stamps one shard, buyers [begin, end) of the spec's
// codebook, crash-safely: it records each buyer's lifecycle (embedding ->
// verified -> committed, or failed) in the write-ahead journal
// `shard_<i>.journal` (common/journal.hpp) and publishes each edition
// atomically into `editions/`, so the process can be SIGKILLed at any
// instant and rerun with the same arguments to finish the shard. Per
// buyer, under the default RetryPolicy seeded by the buyer's seed:
// stamp (fingerprint/batch.hpp make_edition), refuse an edition over the
// delay constraint, require extract_code to give back the codeword,
// journal `verified`, publish the BLIF, journal `committed` with its
// crc32. A resume skips a committed buyer only when its artifact still
// has the recorded crc32, and re-stamps it otherwise; the artifacts are
// byte-identical to an uninterrupted run at any thread count. No commit
// proves equivalence: `verified` means the edition decodes to its
// codeword.
//
// Only a caller that heartbeats gets status snapshots (`status_<i>.snap`);
// the supervisor watches those and the journal's growth, the daemon
// neither. run_shard neither reads nor writes run.spec: callers pin it
// (pin_run_spec) or read it first.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dist/shard.hpp"
#include "fingerprint/batch.hpp"

namespace odcfp::dist {

/// A run's inputs as its spec determines them: make_benchmark(circuit),
/// find_locations, and the codebook of the spec's kind. The constructor
/// is the one rebuild of a run's inputs; it throws CheckError on an
/// unknown circuit or an order the locations cannot give distinct
/// codewords. Never copied or moved: `book` refers to `locations`.
struct RunInputs {
  explicit RunInputs(const RunSpec& spec);
  RunInputs(const RunInputs&) = delete;
  RunInputs& operator=(const RunInputs&) = delete;

  const Netlist golden;
  const std::vector<FingerprintLocation> locations;
  const std::unique_ptr<const CodebookSource> book;
};

struct ShardOptions {
  std::size_t shard = 0;
  /// Buyers [begin, end) of the run; end == 0 means through the last.
  std::size_t begin = 0;
  std::size_t end = 0;
  /// Lease epoch, recorded in the status snapshots.
  std::uint64_t epoch = 1;
  ThreadPool* pool = nullptr;
  const Budget* budget = nullptr;
  /// > 0: append a journal heartbeat and publish a status snapshot (and
  /// flush an armed trace) every this-many ms, plus a final snapshot.
  /// 0: neither heartbeats nor snapshots.
  std::int64_t heartbeat_ms = 0;
};

struct ResumableBatchResult {
  /// One slot per buyer of the run, index-aligned. A buyer recovered from
  /// the journal (committed by an earlier run) carries status kOk with an
  /// EMPTY netlist and zero overheads: its bytes live at
  /// artifacts[buyer]. Buyers outside the shard stay kExhausted.
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
  /// kOk: every buyer of the shard committed. kInfeasible: some buyer
  /// exceeds the delay constraint or does not decode to its codeword
  /// (journaled `failed`; a rerun retries it). kExhausted: the budget
  /// died or transient faults outlasted the retry policy; rerun to
  /// continue. kMalformedInput: the journal belongs to a different run
  /// or is corrupt mid-file (message explains; nothing was stamped).
  Status status = Status::kOk;
  std::string message;
};

/// Stamps one shard of the run in `run_dir`, whose run.spec is `spec`
/// and whose inputs are `inputs`. Rerunning with the same arguments
/// resumes from the shard journal. On resume the journal header's seed
/// is authoritative: a differing spec.batch_seed is logged and
/// overridden, so resumed editions never diverge from committed ones.
ResumableBatchResult run_shard(const std::string& run_dir,
                               const RunSpec& spec, const RunInputs& inputs,
                               const ShardOptions& options);

}  // namespace odcfp::dist
