// The one reader of a fingerprinting run dir (src/dist/): a sharded
// run, or a daemon request's one-shard run.
//
//   odcfp_report RUN_DIR                 human table
//   odcfp_report RUN_DIR --json          JSON report
//   odcfp_report RUN_DIR --stitch PATH   also write the stitched
//                                        cross-process Chrome trace
//   odcfp_report RUN_DIR --k F           latency-outlier threshold
//                                        (default 3.0: p99 > F x median)
//   odcfp_report RUN_DIR --threads N     stitcher parse parallelism
//                                        (output is identical for any N)
//   odcfp_report RUN_DIR --stall-ms N    flag a leased shard whose
//                                        journal is silent for N ms
//                                        (default 5000) as stalled
//   odcfp_report RUN_DIR --watch         re-analyze every --interval-ms
//                                        (default 500) until the run is
//                                        done (its merge record lands,
//                                        or, with no lease journal,
//                                        every buyer is committed):
//                                        exit 0 — ^C to stop earlier
//   ... --watch --watch-timeout MS       give up after MS milliseconds:
//                                        exit 3 with a diagnostic naming
//                                        the run's last state, so a CI
//                                        job watching a wedged run fails
//                                        loudly instead of hanging.
//
// Works on live, crashed, and finished runs alike: the report is a pure
// function of the run dir's primary sources (run.spec, lease journal,
// shard journals, trace files: dist::analyze_run), never of
// run_status.json, so a debris dir left by a chaos kill or a dead
// supervisor analyzes exactly like a healthy one. The only clock-derived
// values are each shard's heartbeat age and stall flag
// (dist::read_liveness). Exit 0 whenever a report could be produced
// (crashed runs included: their anomalies are the point), 1 when the dir
// holds nothing analyzable (under --watch such a dir reads as idle and
// keeps being polled), 2 on usage errors or a missing dir, 3 when a
// watch times out.
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>

#include "common/atomic_io.hpp"
#include "common/parallel.hpp"
#include "common/record_log.hpp"
#include "dist/report.hpp"
#include "dist/stitch.hpp"

namespace {

using namespace odcfp;

struct Args {
  std::string run_dir;
  std::string stitch_path;
  bool json = false;
  double k = 3.0;
  int threads = 1;
  bool watch = false;
  std::int64_t interval_ms = 500;
  std::int64_t stall_ms = 5'000;
  std::int64_t watch_timeout_ms = 0;  // 0 = watch forever
};

/// Exit code when --watch-timeout expires before the run finishes.
/// Distinct from 2 (usage / missing run dir) so callers can tell "I
/// asked the wrong question" from "the run never finished".
constexpr int kExitWatchTimeout = 3;

int usage() {
  std::fprintf(stderr,
               "usage: odcfp_report RUN_DIR [--json] [--stitch PATH]\n"
               "                    [--k FACTOR] [--threads N]\n"
               "                    [--stall-ms N] [--watch]\n"
               "                    [--interval-ms N] [--watch-timeout MS]\n");
  return 2;
}

/// A positive whole number of at most `max`, the whole text.
bool parse_positive(const char* text, std::uint64_t max, std::uint64_t* out) {
  return record_log::parse_u64(text, out) && *out > 0 && *out <= max;
}

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    std::uint64_t n = 0;
    if (flag == "--json") {
      args->json = true;
    } else if (flag == "--watch") {
      args->watch = true;
    } else if (flag[0] != '-') {
      if (!args->run_dir.empty()) return false;
      args->run_dir = flag;
    } else if (i + 1 >= argc) {
      return false;
    } else if (flag == "--stitch") {
      args->stitch_path = argv[++i];
    } else if (flag == "--k") {
      if (!record_log::parse_double(argv[++i], &args->k) || args->k < 1.0) {
        return false;
      }
    } else if (flag == "--threads") {
      if (!parse_positive(argv[++i], INT32_MAX, &n)) return false;
      args->threads = static_cast<int>(n);
    } else if (flag == "--interval-ms" || flag == "--stall-ms" ||
               flag == "--watch-timeout") {
      if (!parse_positive(argv[++i], INT64_MAX, &n)) return false;
      const auto ms = static_cast<std::int64_t>(n);
      if (flag == "--interval-ms") args->interval_ms = ms;
      else if (flag == "--stall-ms") args->stall_ms = ms;
      else args->watch_timeout_ms = ms;
    } else {
      return false;
    }
  }
  return !args->run_dir.empty();
}

/// Stitches the run's traces into --stitch PATH and folds the stitch's
/// loss accounting into `report`. False when the trace cannot be
/// written; a dir with nothing to stitch only warns.
bool stitch(const Args& args, dist::RunReport* report) {
  ThreadPool pool(args.threads);
  dist::StitchOptions stitch_options;
  stitch_options.pool = args.threads > 1 ? &pool : nullptr;
  const dist::StitchResult stitched =
      dist::stitch_run(args.run_dir, stitch_options);
  if (stitched.status != Status::kOk) {
    // An idle dir has nothing to stitch; the report still counts.
    std::fprintf(stderr, "odcfp_report: %s\n", stitched.message.c_str());
    return true;
  }
  const atomic_io::WriteResult written =
      atomic_io::write_file_atomic(args.stitch_path, stitched.json);
  if (!written.ok) {
    std::fprintf(stderr, "odcfp_report: writing stitched trace '%s': %s\n",
                 args.stitch_path.c_str(), written.error.c_str());
    return false;
  }
  dist::fold_stitch(stitched, report);
  std::fprintf(stderr, "odcfp_report: %s -> %s\n", stitched.message.c_str(),
               args.stitch_path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) return usage();
  if (!atomic_io::exists(args.run_dir)) {
    std::fprintf(stderr, "odcfp_report: run dir '%s' does not exist\n",
                 args.run_dir.c_str());
    return 2;
  }

  dist::ReportOptions options;
  options.latency_k = args.k;
  const bool clear_screen =
      args.watch && !args.json && ::isatty(STDOUT_FILENO) == 1;
  const auto watch_start = std::chrono::steady_clock::now();
  for (;;) {
    dist::RunReport report = dist::analyze_run(args.run_dir, options);
    if (report.status != Status::kOk && !args.watch) {
      std::fprintf(stderr, "odcfp_report: %s\n", report.message.c_str());
      return 1;
    }
    dist::read_liveness(args.run_dir, args.stall_ms, &report);
    if (!args.stitch_path.empty() && report.status == Status::kOk &&
        !stitch(args, &report)) {
      return 1;
    }
    if (clear_screen) std::fputs("\033[H\033[2J", stdout);
    const std::string rendered = args.json
                                     ? dist::render_report_json(report)
                                     : dist::render_report_table(report);
    std::fputs(rendered.c_str(), stdout);
    std::fflush(stdout);
    if (!args.watch || report.state == "done") return 0;
    const auto watched_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - watch_start)
            .count();
    if (args.watch_timeout_ms > 0 && watched_ms >= args.watch_timeout_ms) {
      std::fprintf(stderr,
                   "odcfp_report: watch timed out after %lld ms; run '%s' "
                   "is still in state '%s' (not done)\n",
                   static_cast<long long>(args.watch_timeout_ms),
                   args.run_dir.c_str(), report.state.c_str());
      return kExitWatchTimeout;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(args.interval_ms));
  }
}
