// The one runner behind every shipped order.
//
// A run dir's run.spec (dist/shard.hpp) determines its inputs, and
// RunInputs is the one rebuild of them: the worker process stamping a
// shard of a supervised run (tools/odcfp_worker), the supervisor before
// its merge (dist/supervisor.*), and the daemon running a request as
// shard 0 of `state/runs/req_<n>` (service/server.*) all build one.
// run_shard then stamps one shard: buyers [begin, end) of the
// spec's codebook, through batch_fingerprint_resumable, journaled in
// `shard_<i>.journal` with editions published into `editions/`. Only a
// caller that heartbeats gets status snapshots (`status_<i>.snap`); the
// supervisor watches those and the journal's growth, the daemon neither.
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

/// Stamps one shard of the run in `run_dir`, whose run.spec is `spec`
/// and whose inputs are `inputs`. Rerunning with the same arguments
/// resumes from the shard journal (batch_fingerprint_resumable).
ResumableBatchResult run_shard(const std::string& run_dir,
                               const RunSpec& spec, const RunInputs& inputs,
                               const ShardOptions& options);

}  // namespace odcfp::dist
