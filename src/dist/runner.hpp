// The one runner behind every shipped order.
//
// A run dir's run.spec (dist/shard.hpp) determines its inputs, and
// RunInputs is the one rebuild of them: run_shard builds one for the
// shard it stamps (a worker process of a supervised run, tools/
// odcfp_worker; a daemon request run as shard 0 of `state/runs/req_<n>`,
// service/server.*; a library caller), and the supervisor builds one
// before its merge (dist/supervisor.*).
//
// run_shard stamps one shard, buyers [begin, end) of the spec's
// codebook, crash-safely: it records each buyer's lifecycle (embedding ->
// verified -> committed, or failed) in the write-ahead journal
// `shard_<i>.journal` (common/journal.hpp) and publishes each edition
// atomically into `editions/`, so the process can be SIGKILLed at any
// instant and rerun with the same arguments to finish the shard. Per
// buyer, under the default RetryPolicy seeded by the buyer's seed:
// stamp (fingerprint/batch.hpp make_edition), refuse an edition over the
// delay constraint, require extract_code to give back the codeword,
// journal `verified`, publish the BLIF, journal `committed` with its
// crc32 and the edition's run-dir-relative path. A resume skips a
// committed buyer only when its artifact, at edition_path(run_dir,
// buyer), still has the recorded crc32, and re-stamps it otherwise; the
// artifacts are byte-identical to an uninterrupted run at any thread
// count. No commit proves equivalence: `verified` means the edition
// decodes to its codeword.
//
// The journal's header is run_header(spec): a journal belongs to the
// run whose spec gives that header, and any other is refused. Because
// the header needs nothing but the spec, run_shard opens the journal
// and starts its heartbeat before it builds the inputs, so nothing that
// grows with the order runs before a worker shows it is alive.
//
// The journal is the shard's only progress record: the run-dir readers
// (dist/status.hpp) take its committed count, rate and edition latency
// from it. A caller that heartbeats (a worker) also gets journal
// heartbeats, which the supervisor watches, and a flush of its armed
// trace at that cadence. run_shard neither reads nor writes run.spec:
// callers pin it (pin_run_spec) or read it first.
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
  ThreadPool* pool = nullptr;
  const Budget* budget = nullptr;
  /// > 0: append a journal heartbeat (and flush an armed trace) every
  /// this-many ms. 0: no heartbeats.
  std::int64_t heartbeat_ms = 0;
};

struct ResumableBatchResult {
  /// One slot per buyer of the run, index-aligned. A buyer recovered from
  /// the journal (committed by an earlier run) carries status kOk with an
  /// EMPTY netlist and zero overheads: its bytes live at
  /// artifacts[buyer]. A buyer that failed permanently keeps its
  /// edition's overheads and critical delay but no netlist. Buyers
  /// outside the shard stay kExhausted.
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
  /// or is corrupt mid-file, or RunInputs refuses the spec (message
  /// explains; nothing was stamped).
  Status status = Status::kOk;
  std::string message;
};

/// Stamps one shard of the run in `run_dir`, whose run.spec is `spec`.
/// Rerunning with the same arguments resumes from the shard journal; a
/// journal whose header is not run_header(spec) is another run's, and
/// is refused before anything is stamped. A budget already dead on
/// entry returns kExhausted with every buyer pending and no journal.
ResumableBatchResult run_shard(const std::string& run_dir,
                               const RunSpec& spec,
                               const ShardOptions& options);

}  // namespace odcfp::dist
