// Shard worker entrypoint for the distributed supervisor (src/dist/).
//
// The supervisor spawns one of these per shard lease:
//
//   odcfp_worker --run-dir DIR --shard I --begin B --end E --epoch N
//                --threads T --heartbeat-ms MS [--trace PATH]
//                [chaos flags]
//
// The worker reads DIR/run.spec and stamps buyers [B, E) as shard I
// through dist::run_shard, which opens DIR/shard_I.journal and starts
// its heartbeat (every MS milliseconds) first, then rebuilds the run's
// inputs from the spec (dist::RunInputs — no netlist bytes cross the
// process boundary), journals each buyer's lifecycle and publishes
// editions into DIR/editions/. The journal is the shard's only progress
// record, and it grows from the start. The epoch N names
// the lease in the trace metadata and gates the chaos flags. Exit codes
// follow dist::kWorkerExit* (supervisor.hpp).
//
// --trace PATH arms run-scoped trace capture: the worker records its
// timeline (with shard/epoch identity and its clock anchor in the
// file's otherData) and atomically rewrites PATH on every heartbeat, so
// a SIGKILL — including the supervisor's own wedge-kill — loses at most
// one heartbeat interval of events. src/dist/stitch.* merges these into
// the run's cross-process timeline.
//
// Chaos flags (test-only; in-process fault injectors cannot cross an
// exec boundary, so the kill schedule rides the command line):
//
//   --chaos-signal kill|stop   raise SIGKILL (crash) or SIGSTOP (wedge:
//                              every thread freezes, heartbeats stop,
//                              the supervisor's deadline must catch it)
//   --chaos-site PREFIX        at the nth hit of a fault site with this
//   --chaos-nth N              prefix (1-based)
//   --chaos-epoch N            but only when --epoch == N, so a respawn
//                              at the next epoch runs clean and recovery
//                              can be asserted deterministically.
//   --chaos-shard S            and only when --shard == S (default: any
//                              shard), so a fleet-wide flag set can still
//                              kill exactly one worker.
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/fault.hpp"
#include "common/parallel.hpp"
#include "common/record_log.hpp"
#include "common/trace.hpp"
#include "dist/runner.hpp"
#include "dist/shard.hpp"
#include "dist/supervisor.hpp"

namespace {

using namespace odcfp;

struct Args {
  std::string run_dir;
  std::size_t shard = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::uint64_t epoch = 1;
  int threads = 1;
  std::int64_t heartbeat_ms = 0;
  std::string trace_path;    // run-scoped trace capture destination
  std::string chaos_signal;  // "", "kill", or "stop"
  std::string chaos_site;
  std::uint64_t chaos_nth = 1;
  std::uint64_t chaos_epoch = 1;
  std::uint64_t chaos_shard = UINT64_MAX;  // any shard
};

/// Every numeric flag is a whole decimal u64 (record_log::parse_u64),
/// range-checked where its field is narrower; anything else is refused
/// before the run dir is touched.
bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "odcfp_worker: %s needs a value\n",
                   flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    const bool u64 = record_log::parse_u64(value, &n);
    bool ok = true;
    if (flag == "--run-dir") args->run_dir = value;
    else if (flag == "--trace") args->trace_path = value;
    else if (flag == "--chaos-signal") args->chaos_signal = value;
    else if (flag == "--chaos-site") args->chaos_site = value;
    else if (!u64) ok = false;
    else if (flag == "--shard") args->shard = n;
    else if (flag == "--begin") args->begin = n;
    else if (flag == "--end") args->end = n;
    else if (flag == "--epoch") args->epoch = n;
    else if (flag == "--chaos-nth") args->chaos_nth = n;
    else if (flag == "--chaos-epoch") args->chaos_epoch = n;
    else if (flag == "--chaos-shard") args->chaos_shard = n;
    else if (flag == "--threads" && n <= INT32_MAX) {
      args->threads = static_cast<int>(n);
    } else if (flag == "--heartbeat-ms" && n <= INT64_MAX) {
      args->heartbeat_ms = static_cast<std::int64_t>(n);
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "odcfp_worker: bad flag or value: %s %s\n",
                   flag.c_str(), value.c_str());
      return false;
    }
  }
  return !args->run_dir.empty();
}

/// Raises `signo` at the nth hit of a matching fault site. SIGKILL dies
/// on the spot (crash shape); SIGSTOP freezes the whole process —
/// including the heartbeat thread — until someone resumes or kills it
/// (wedge shape).
struct SignalAtNth : fault::Injector {
  SignalAtNth(std::uint64_t nth, std::string prefix, int signo)
      : nth_(nth), prefix_(std::move(prefix)), signo_(signo) {}

  void on_point(const char* site) override {
    if (std::strncmp(site, prefix_.c_str(), prefix_.size()) != 0) return;
    if (hits_.fetch_add(1, std::memory_order_relaxed) + 1 == nth_) {
      ::raise(signo_);
    }
  }

  std::uint64_t nth_;
  std::string prefix_;
  int signo_;
  std::atomic<std::uint64_t> hits_{0};
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    return dist::kWorkerExitMalformed;
  }

  Outcome<dist::RunSpec> spec_read =
      dist::read_run_spec(dist::run_spec_path(args.run_dir));
  if (!spec_read.ok()) {
    std::fprintf(stderr, "odcfp_worker: %s\n",
                 spec_read.message().c_str());
    return dist::kWorkerExitMalformed;
  }
  const dist::RunSpec spec = spec_read.value();

  if (!args.trace_path.empty()) {
    // Run-scoped capture: record from before the first fault site, arm
    // the per-(shard, epoch) file, and make it durable immediately so
    // even a worker killed before its first heartbeat leaves a trace
    // carrying its clock anchor and identity metadata.
    trace::start();
    const std::string label = "shard-" + std::to_string(args.shard);
    trace::set_process_label(label.c_str());
    trace::set_thread_name("worker-main");
    trace::set_meta("role", "worker");
    trace::set_meta("run_label", spec.label);
    trace::set_meta("circuit", spec.circuit);
    trace::set_meta("shard", std::to_string(args.shard));
    trace::set_meta("epoch", std::to_string(args.epoch));
    trace::arm_file(args.trace_path);
    trace::flush();
  }

  SignalAtNth chaos(args.chaos_nth, args.chaos_site,
                    args.chaos_signal == "stop" ? SIGSTOP : SIGKILL);
  fault::ScopedInjector scoped(
      !args.chaos_signal.empty() && args.epoch == args.chaos_epoch &&
              (args.chaos_shard == UINT64_MAX ||
               args.chaos_shard == args.shard)
          ? &chaos
          : nullptr);

  try {
    ThreadPool pool(args.threads);
    dist::ShardOptions options;
    options.shard = args.shard;
    options.begin = args.begin;
    options.end = args.end;
    options.pool = args.threads > 1 ? &pool : nullptr;
    options.heartbeat_ms = args.heartbeat_ms;
    const dist::ResumableBatchResult rr =
        dist::run_shard(args.run_dir, spec, options);
    switch (rr.status) {
      case Status::kOk:
        return dist::kWorkerExitOk;
      case Status::kExhausted:
        return dist::kWorkerExitResumable;
      case Status::kMalformedInput:
        std::fprintf(stderr, "odcfp_worker: %s\n", rr.message.c_str());
        return dist::kWorkerExitMalformed;
      default:
        std::fprintf(stderr, "odcfp_worker: %s\n", rr.message.c_str());
        return dist::kWorkerExitInfeasible;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "odcfp_worker: %s\n", e.what());
    return dist::kWorkerExitMalformed;
  }
}
