// Shard-scale bench for the distributed supervisor: editions stamped
// per second as the shard count (worker process count) grows, and the
// cost of recovering from exactly one SIGKILLed worker per
// configuration (shard 0's epoch-1 worker dies at its first artifact
// rename; the supervisor revokes, re-grants, and the epoch-2 worker
// resumes from the shard journal).
//
// Determinism contract, re-checked here: every configuration's merged
// artifacts and per-buyer editions are byte-identical to the 1-shard
// uninterrupted run. The identity flags and lease counters are
// deterministic and gate in CI (tools/bench_diff.py); the editions/sec
// and recovery_ms columns are time-like and informational only.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/atomic_io.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/telemetry.hpp"
#include "dist/shard.hpp"
#include "dist/status.hpp"
#include "dist/stitch.hpp"
#include "dist/supervisor.hpp"

using namespace odcfp;
using namespace odcfp::bench;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

std::string scratch_base() {
  const char* env = std::getenv("TMPDIR");
  std::string base = env != nullptr && *env != '\0' ? env : "/tmp";
  if (base.back() != '/') base += '/';
  return base + "odcfp_shard_scale_" + std::to_string(::getpid());
}

struct MergedBytes {
  std::vector<std::string> editions;
  std::string codebook, verification, telemetry;
  // Final run_status.json roll-up — a pure function of (buyers,
  // artifact sizes), so it must be byte-identical across shard counts
  // and kill schedules just like the merged artifacts.
  std::string run_status;

  bool operator==(const MergedBytes&) const = default;
};

MergedBytes collect(const std::string& run_dir,
                    const dist::DistResult& r) {
  MergedBytes m;
  for (const std::string& path : r.artifacts) {
    std::string bytes;
    atomic_io::read_file(path, &bytes);
    m.editions.push_back(std::move(bytes));
  }
  atomic_io::read_file(dist::merged_dir(run_dir) + "/codebook.txt",
                       &m.codebook);
  atomic_io::read_file(dist::merged_dir(run_dir) + "/verification.json",
                       &m.verification);
  atomic_io::read_file(dist::merged_dir(run_dir) + "/telemetry.json",
                       &m.telemetry);
  atomic_io::read_file(dist::run_status_path(run_dir), &m.run_status);
  return m;
}

}  // namespace

int main() {
  dist::RunSpec spec;
  spec.circuit = smoke() ? "c432" : "c880";
  spec.num_buyers = smoke() ? 8 : 16;
  spec.codebook_seed = 2026;
  spec.batch_seed = 7;
  spec.max_delay_overhead = 0;  // measure sharding, not the delay gate
  spec.label = "shard scale";

  const std::string base = scratch_base();
  BenchReport report("shard_scale");

  std::printf("SHARD SCALING (%s, %llu buyers, 1 worker thread/shard)\n\n",
              spec.circuit.c_str(),
              static_cast<unsigned long long>(spec.num_buyers));
  std::printf("%6s %8s %12s | %12s %10s %9s\n", "shards", "workers",
              "editions/s", "recovery_ms", "regrants", "identical");
  print_rule(66);

  MergedBytes reference;
  bool all_identical = true;

  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    dist::DistOptions opt;
    opt.run_dir = base + "/clean_" + std::to_string(shards);
    opt.worker_binary = ODCFP_WORKER_BIN;
    opt.num_shards = shards;
    opt.worker_threads = 1;
    opt.poll_interval_ms = 2;

    // Panel 1: uninterrupted run → editions/sec at this shard count.
    const auto t0 = std::chrono::steady_clock::now();
    const dist::DistResult clean = dist::run_supervised_batch(spec, opt);
    const double clean_s = seconds_since(t0);
    if (clean.status != Status::kOk) {
      std::fprintf(stderr, "clean run failed at %zu shards: %s\n", shards,
                   clean.message.c_str());
      return 1;
    }
    const MergedBytes clean_bytes = collect(opt.run_dir, clean);
    if (shards == 1) reference = clean_bytes;

    // Panel 2: same configuration, but shard 0's epoch-1 worker is
    // SIGKILLed at its first artifact rename — exactly one kill — and
    // the run must still converge. The extra wall-clock over the clean
    // run is the recovery cost (revoke + respawn + journal replay).
    dist::DistOptions chaos = opt;
    chaos.run_dir = base + "/killed_" + std::to_string(shards);
    // Killed runs capture traces (supervisor + one file per grant) so
    // the stitch panel below has a real crash-shaped run dir to merge;
    // the clean runs stay capture-free to keep editions/s undiluted.
    chaos.capture_traces = true;
    chaos.extra_worker_args = {"--chaos-signal", "kill",
                               "--chaos-site",   "atomic_io.rename",
                               "--chaos-nth",    "1",
                               "--chaos-epoch",  "1",
                               "--chaos-shard",  "0"};
    const auto t1 = std::chrono::steady_clock::now();
    const dist::DistResult killed = dist::run_supervised_batch(spec, chaos);
    const double killed_s = seconds_since(t1);
    if (killed.status != Status::kOk) {
      std::fprintf(stderr, "kill run failed at %zu shards: %s\n", shards,
                   killed.message.c_str());
      return 1;
    }
    const double recovery_ms =
        killed_s > clean_s ? (killed_s - clean_s) * 1000.0 : 0.0;

    const MergedBytes killed_bytes = collect(chaos.run_dir, killed);
    const bool identical =
        clean_bytes == reference && killed_bytes == reference;
    const bool status_identical = !reference.run_status.empty() &&
                                  clean_bytes.run_status ==
                                      reference.run_status &&
                                  killed_bytes.run_status ==
                                      reference.run_status;
    all_identical &= identical;

    const double editions_per_sec =
        static_cast<double>(spec.num_buyers) / clean_s;
    std::printf("%6zu %8zu %12.1f | %12.1f %10zu %9s\n", clean.shards,
                killed.workers_spawned, editions_per_sec, recovery_ms,
                killed.regrants, identical ? "yes" : "NO");

    report.add_row("shards_" + std::to_string(shards))
        .label("circuit", spec.circuit)
        .metric("shards", static_cast<double>(clean.shards))
        .metric("buyers_committed",
                static_cast<double>(clean.buyers_committed))
        .metric("workers_spawned_clean",
                static_cast<double>(clean.workers_spawned))
        .metric("workers_spawned_killed",
                static_cast<double>(killed.workers_spawned))
        .metric("regrants", static_cast<double>(killed.regrants))
        .metric("identical", identical ? 1.0 : 0.0)
        .metric("status_identical", status_identical ? 1.0 : 0.0)
        .metric("editions_per_sec", editions_per_sec)
        .metric("recovery_ms", recovery_ms);
  }

  // Histogram roll-up (schema v3). The supervisor process records no
  // histograms itself — the editions are stamped in worker subprocesses
  // — so the artifact-size histogram is read back from the merged
  // telemetry.json, where merge_run records one sample per buyer. Its
  // quantiles are a pure function of the committed artifact bytes and
  // gate like any other deterministic metric.
  if (!reference.telemetry.empty()) {
    const telemetry::Node merged_telem =
        telemetry::parse_json(reference.telemetry);
    const metrics::HistData sizes =
        merged_telem.hist_total("artifact_bytes");
    const metrics::HistSummary sq = metrics::summarize(sizes);
    report.add_row("hist_summary")
        .label("panel", "histograms")
        .metric("artifact_samples", static_cast<double>(sizes.count))
        .metric("artifact_bytes_p50", static_cast<double>(sq.p50))
        .metric("artifact_bytes_p90", static_cast<double>(sq.p90))
        .metric("artifact_bytes_p99", static_cast<double>(sq.p99));
    std::printf("\nartifact bytes: %llu buyers, p50<=%llu p90<=%llu "
                "p99<=%llu\n",
                static_cast<unsigned long long>(sizes.count),
                static_cast<unsigned long long>(sq.p50),
                static_cast<unsigned long long>(sq.p90),
                static_cast<unsigned long long>(sq.p99));
  }

  // Stitch panel: merge the killed 4-shard run's cross-process debris
  // (supervisor trace, 5 worker traces, lease journal, shard journals)
  // into one timeline at 1/2/8 stitcher threads. The stitched
  // bytes, the lease-span count, and the missing-trace count are
  // deterministic — the kill schedule is fixed and the stitcher is pure
  // record math — and hard-gate in CI via telemetry counters; the
  // stitch latency is wall-clock and the raw event count is
  // schedule-dependent (heartbeat cadence), so both stay soft.
  {
    const std::string killed_dir = base + "/killed_4";
    std::string first_json;
    bool stitch_identical = true;
    double stitch_ms = 0.0;
    dist::StitchResult last;
    for (const int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      dist::StitchOptions stitch_opt;
      stitch_opt.pool = threads > 1 ? &pool : nullptr;
      const auto t2 = std::chrono::steady_clock::now();
      dist::StitchResult stitched = dist::stitch_run(killed_dir, stitch_opt);
      const double ms = seconds_since(t2) * 1000.0;
      if (stitched.status != Status::kOk) {
        std::fprintf(stderr, "stitch failed at %d threads: %s\n", threads,
                     stitched.message.c_str());
        return 1;
      }
      if (first_json.empty()) {
        first_json = stitched.json;
        stitch_ms = ms;
      } else {
        stitch_identical &= stitched.json == first_json;
        if (ms < stitch_ms) stitch_ms = ms;
      }
      last = std::move(stitched);
    }
    all_identical &= stitch_identical;
    {
      TELEM_SPAN("bench.stitch");
      TELEM_COUNT("stitch.lease_spans",
                  static_cast<std::int64_t>(last.lease_spans));
      TELEM_COUNT("stitch.missing_traces",
                  static_cast<std::int64_t>(last.missing_traces));
      TELEM_COUNT("stitch.identical", stitch_identical ? 1 : 0);
    }
    telemetry::flush_thread();
    report.add_row("stitch")
        .label("panel", "stitch")
        .metric("stitch_ms", stitch_ms)
        .metric("stitched_events", static_cast<double>(last.total_events))
        .metric("lease_spans", static_cast<double>(last.lease_spans))
        .metric("missing_traces", static_cast<double>(last.missing_traces))
        .metric("dropped_events",
                static_cast<double>(last.dropped_events))
        .metric("stitch_identical", stitch_identical ? 1.0 : 0.0);
    std::printf("\nstitch (killed 4-shard run): %llu events, %llu lease "
                "spans, %llu missing, %.1f ms, %s across 1/2/8 threads\n",
                static_cast<unsigned long long>(last.total_events),
                static_cast<unsigned long long>(last.lease_spans),
                static_cast<unsigned long long>(last.missing_traces),
                stitch_ms,
                stitch_identical ? "byte-identical" : "DIVERGENT");
  }

  std::printf("\n(merged artifacts are byte-identical across every shard "
              "count and kill\n schedule%s; editions/s and recovery_ms are "
              "wall-clock and never gate)\n",
              all_identical ? "" : " — VIOLATED, see above");
  return all_identical ? 0 : 1;
}
