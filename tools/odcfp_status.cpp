// Run monitor for a fingerprinting run dir (src/dist/): a sharded run,
// or a daemon request's one-shard run.
//
//   odcfp_status RUN_DIR            one-shot text table
//   odcfp_status RUN_DIR --json     one-shot JSON (render_run_status_json)
//   odcfp_status RUN_DIR --watch    poll until the run is done (its
//                                   merge record lands, or, with no
//                                   lease journal, every buyer is
//                                   committed): exit 0 — ^C to stop
//                                   earlier
//   ... --watch --watch-timeout MS  give up after MS milliseconds of
//                                   watching: exit 3 (distinct from the
//                                   usage/missing-dir exit 2) with a
//                                   diagnostic naming the run's last
//                                   observed state, so CI jobs watching
//                                   a wedged run fail loudly instead of
//                                   hanging until the job timeout.
//
// The status is composed from the run dir's primary sources (run.spec,
// lease journal, shard journals: dist::load_run), never from
// run_status.json, so the monitor works identically on a live run, a
// crashed one, and a finished one — including a run dir whose
// supervisor is long dead. Each shard's committed count and rate come
// from its journal, so a one-shard run (a daemon request, a library
// run) shows them like a sharded one.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/atomic_io.hpp"
#include "dist/status.hpp"

namespace {

using namespace odcfp;

struct Args {
  std::string run_dir;
  bool json = false;
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
               "usage: odcfp_status RUN_DIR [--json] [--watch]\n"
               "                    [--interval-ms N] [--stall-ms N]\n"
               "                    [--watch-timeout MS]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--json") {
      args->json = true;
    } else if (flag == "--watch") {
      args->watch = true;
    } else if (flag == "--interval-ms" || flag == "--stall-ms" ||
               flag == "--watch-timeout") {
      if (i + 1 >= argc) return false;
      const std::int64_t v = std::strtoll(argv[++i], nullptr, 10);
      if (v <= 0) return false;
      if (flag == "--interval-ms") args->interval_ms = v;
      else if (flag == "--stall-ms") args->stall_ms = v;
      else args->watch_timeout_ms = v;
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

void render_once(const Args& args, const dist::RunStatusView& view) {
  if (args.json) {
    std::fputs(dist::render_run_status_json(view).c_str(), stdout);
  } else {
    std::fputs(dist::render_run_status_table(view).c_str(), stdout);
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) return usage();
  if (!atomic_io::exists(args.run_dir)) {
    std::fprintf(stderr, "odcfp_status: run dir '%s' does not exist\n",
                 args.run_dir.c_str());
    return 2;
  }

  if (!args.watch) {
    render_once(args,
                dist::inspect_run_dir(args.run_dir, args.stall_ms));
    return 0;
  }

  const bool tty = ::isatty(STDOUT_FILENO) == 1;
  const auto watch_start = std::chrono::steady_clock::now();
  for (;;) {
    const dist::RunStatusView view =
        dist::inspect_run_dir(args.run_dir, args.stall_ms);
    if (tty && !args.json) std::fputs("\033[H\033[2J", stdout);
    render_once(args, view);
    if (view.state == "done") return 0;
    if (args.watch_timeout_ms > 0) {
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - watch_start)
              .count();
      if (elapsed >= args.watch_timeout_ms) {
        std::fprintf(stderr,
                     "odcfp_status: watch timed out after %lld ms; run "
                     "'%s' is still in state '%s' (not done)\n",
                     static_cast<long long>(args.watch_timeout_ms),
                     args.run_dir.c_str(), view.state.c_str());
        return kExitWatchTimeout;
      }
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(args.interval_ms));
  }
}
