#include "dist/runner.hpp"

#include <unistd.h>

#include "benchgen/benchmarks.hpp"
#include "common/check.hpp"
#include "common/clock.hpp"
#include "common/telemetry.hpp"
#include "common/trace.hpp"
#include "dist/status.hpp"
#include "fingerprint/location.hpp"
#include "fingerprint/streaming_codebook.hpp"
#include "power/power.hpp"
#include "timing/sta.hpp"

namespace odcfp::dist {

namespace {

std::unique_ptr<const CodebookSource> make_codebook(
    const RunSpec& spec, const std::vector<FingerprintLocation>& locs) {
  if (spec.codebook == CodebookKind::kMaterialized) {
    return std::make_unique<Codebook>(locs, spec.num_buyers,
                                      spec.codebook_seed);
  }
  if (spec.num_buyers > StreamingCodebook::capacity(locs)) {
    throw CheckError("buyers exceed codeword capacity of '" + spec.circuit +
                     "'");
  }
  return std::make_unique<StreamingCodebook>(locs, spec.num_buyers,
                                             spec.codebook_seed);
}

}  // namespace

RunInputs::RunInputs(const RunSpec& spec)
    : golden(make_benchmark(spec.circuit)),
      locations(find_locations(golden)),
      book(make_codebook(spec, locations)) {}

ResumableBatchResult run_shard(const std::string& run_dir,
                               const RunSpec& spec, const RunInputs& inputs,
                               const ShardOptions& options) {
  ResumeOptions resume;
  resume.artifact_dir = editions_dir(run_dir);
  resume.label = spec.label;
  resume.batch.seed = spec.batch_seed;
  resume.batch.max_delay_overhead = spec.max_delay_overhead;
  resume.batch.pool = options.pool;
  resume.batch.budget = options.budget;
  resume.range_begin = options.begin;
  resume.range_end = options.end;
  resume.heartbeat_interval_ms = options.heartbeat_ms;
  if (options.heartbeat_ms > 0) {
    // One atomic single-record publish per heartbeat (plus the final
    // report), carrying progress, rate, and this process's
    // edition-latency histogram so far.
    const std::string snap_path = status_snapshot_path(run_dir, options.shard);
    resume.progress = [&options, snap_path](const BatchProgress& p) {
      ShardStatus st;
      st.shard = options.shard;
      st.epoch = options.epoch;
      st.pid = static_cast<std::uint64_t>(::getpid());
      st.range_begin = p.range_begin;
      st.range_end = p.range_end;
      st.committed = p.committed;
      st.recovered = p.recovered;
      st.elapsed_ms = static_cast<std::uint64_t>(p.elapsed_ms);
      const std::uint64_t stamped = p.committed - p.recovered;
      st.eps_milli = p.elapsed_ms > 0
                         ? stamped * 1'000'000 /
                               static_cast<std::uint64_t>(p.elapsed_ms)
                         : 0;
      st.done = p.final ? 1 : 0;
      st.wall_ns = clocks::anchored_wall_now_ns();
      st.edition_ns = telemetry::snapshot().hist_total("batch.edition_ns");
      write_status_snapshot(snap_path, st);
      // Heartbeat-cadence durability for an armed trace: a SIGKILLed
      // process loses at most one interval of its timeline.
      if (trace::armed()) trace::flush();
    };
  }
  const StaticTimingAnalyzer sta;
  const PowerAnalyzer power;
  return batch_fingerprint_resumable(
      shard_journal_path(run_dir, options.shard), inputs.golden, *inputs.book,
      sta, power, resume);
}

}  // namespace odcfp::dist
