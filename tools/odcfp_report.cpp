// Causal post-mortem for a fingerprinting run dir (src/dist/): a sharded
// run, or a daemon request's one-shard run.
//
//   odcfp_report RUN_DIR                 human table
//   odcfp_report RUN_DIR --json          deterministic JSON report
//   odcfp_report RUN_DIR --stitch PATH   also write the stitched
//                                        cross-process Chrome trace
//   odcfp_report RUN_DIR --k F           latency-outlier threshold
//                                        (default 3.0: p99 > F x median)
//   odcfp_report RUN_DIR --threads N     stitcher parse parallelism
//                                        (output is identical for any N)
//
// Works on live, crashed, and finished runs alike — the report is a
// pure function of the run dir's primary sources (lease journal, shard
// journals, trace files), so a debris dir left by a chaos
// kill analyzes exactly like a healthy one. Exit 0 whenever a report
// could be produced (crashed runs included: their anomalies are the
// point), 1 when the dir holds nothing analyzable, 2 on usage errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/atomic_io.hpp"
#include "common/parallel.hpp"
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
};

int usage() {
  std::fprintf(stderr,
               "usage: odcfp_report RUN_DIR [--json] [--stitch PATH]\n"
               "                    [--k FACTOR] [--threads N]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--json") {
      args->json = true;
    } else if (flag == "--stitch") {
      if (i + 1 >= argc) return false;
      args->stitch_path = argv[++i];
    } else if (flag == "--k") {
      if (i + 1 >= argc) return false;
      args->k = std::strtod(argv[++i], nullptr);
      if (args->k < 1.0) return false;
    } else if (flag == "--threads") {
      if (i + 1 >= argc) return false;
      args->threads = std::atoi(argv[++i]);
      if (args->threads <= 0) return false;
    } else if (!flag.empty() && flag[0] == '-') {
      return false;
    } else if (args->run_dir.empty()) {
      args->run_dir = flag;
    } else {
      return false;
    }
  }
  return !args->run_dir.empty();
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
  dist::RunReport report = dist::analyze_run(args.run_dir, options);
  if (report.status != Status::kOk) {
    std::fprintf(stderr, "odcfp_report: %s\n", report.message.c_str());
    return 1;
  }

  if (!args.stitch_path.empty()) {
    ThreadPool pool(args.threads);
    dist::StitchOptions stitch_options;
    stitch_options.pool = args.threads > 1 ? &pool : nullptr;
    const dist::StitchResult stitched =
        dist::stitch_run(args.run_dir, stitch_options);
    if (stitched.status != Status::kOk) {
      // An idle dir has nothing to stitch; the report above still counts.
      std::fprintf(stderr, "odcfp_report: %s\n",
                   stitched.message.c_str());
    } else {
      const atomic_io::WriteResult written =
          atomic_io::write_file_atomic(args.stitch_path, stitched.json);
      if (!written.ok) {
        std::fprintf(stderr,
                     "odcfp_report: writing stitched trace '%s': %s\n",
                     args.stitch_path.c_str(), written.error.c_str());
        return 1;
      }
      dist::fold_stitch(stitched, &report);
      std::fprintf(stderr, "odcfp_report: %s -> %s\n",
                   stitched.message.c_str(), args.stitch_path.c_str());
    }
  }

  const std::string rendered = args.json
                                   ? dist::render_report_json(report)
                                   : dist::render_report_table(report);
  std::fputs(rendered.c_str(), stdout);
  return 0;
}
