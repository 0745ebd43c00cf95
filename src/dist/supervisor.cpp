#include "dist/supervisor.hpp"

#include <sys/stat.h>

#include <chrono>
#include <optional>
#include <sstream>
#include <thread>

#include "common/atomic_io.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"
#include "common/subprocess.hpp"
#include "common/telemetry.hpp"
#include "common/trace.hpp"
#include "dist/lease.hpp"
#include "dist/merge.hpp"
#include "dist/runner.hpp"
#include "dist/status.hpp"

namespace odcfp::dist {

namespace {

/// Supervisor-side view of one shard's lease.
struct ShardSlot {
  ShardState state = ShardState::kUnassigned;
  std::uint64_t epoch = 0;  ///< Highest epoch granted so far.
  pid_t pid = -1;
  /// Journal size at the last observed growth — any durable append
  /// (lifecycle or heartbeat) is proof of life.
  std::uint64_t last_size = 0;
  /// Armed at grant and re-armed on every growth observation; expiry
  /// means the worker stopped appending for heartbeat_timeout_ms.
  std::optional<Budget> deadline;
  /// When the journal last grew (or the lease was granted) — the
  /// heartbeat age in wedge diagnostics.
  std::chrono::steady_clock::time_point last_growth;
};

std::uint64_t file_size(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.st_size);
}

/// RAII owner of the supervisor's own run-scoped trace. Activates only
/// when capture was requested AND no trace is already live or armed in
/// this process (ODCFP_TRACE, or an embedding test recording its own) —
/// run capture must never hijack a caller's trace. Flushes and tears
/// down on every exit path of run_supervised_batch.
class ScopedRunTrace {
 public:
  ScopedRunTrace(bool enable, const std::string& run_dir,
                 const RunSpec& spec) {
    if (!enable || trace::enabled() || trace::armed()) return;
    active_ = true;
    trace::start();
    trace::set_process_label("supervisor");
    trace::set_meta("role", "supervisor");
    trace::set_meta("run_label", spec.label);
    trace::set_meta("circuit", spec.circuit);
    trace::arm_file(supervisor_trace_path(run_dir));
    trace::flush();  // durable immediately: debris of a crashed
                     // supervisor still carries its clock anchor
  }
  ~ScopedRunTrace() {
    if (!active_) return;
    trace::flush();
    trace::disarm();
    trace::stop();
  }
  ScopedRunTrace(const ScopedRunTrace&) = delete;
  ScopedRunTrace& operator=(const ScopedRunTrace&) = delete;

  bool active() const { return active_; }

 private:
  bool active_ = false;
};

}  // namespace

DistResult run_supervised_batch(const RunSpec& spec,
                                const DistOptions& options) {
  TELEM_SPAN("dist.supervise");
  DistResult result;
  const auto fail = [&result](Status status,
                              std::string message) -> DistResult& {
    result.status = status;
    result.message = std::move(message);
    log::error("dist.supervise.failed")
        .field("status", to_string(status))
        .field("reason", result.message);
    return result;
  };

  if (options.run_dir.empty()) {
    return fail(Status::kMalformedInput, "DistOptions::run_dir must be set");
  }
  if (!atomic_io::exists(options.worker_binary)) {
    return fail(Status::kMalformedInput, "worker binary '" +
                                             options.worker_binary +
                                             "' does not exist");
  }
  if (spec.num_buyers == 0) {
    return fail(Status::kMalformedInput, "RunSpec::num_buyers must be > 0");
  }
  if (!atomic_io::make_dirs(options.run_dir) ||
      !atomic_io::make_dirs(editions_dir(options.run_dir))) {
    return fail(Status::kMalformedInput,
                "cannot create run dir '" + options.run_dir + "'");
  }
  // run.spec and run_status.json publish atomically into the run dir
  // root; a writer SIGKILLed mid-publish leaves temp debris.
  atomic_io::remove_stale_temps(options.run_dir);

  if (options.capture_traces &&
      !atomic_io::make_dirs(traces_dir(options.run_dir))) {
    return fail(Status::kMalformedInput,
                "cannot create traces dir in '" + options.run_dir + "'");
  }
  ScopedRunTrace run_trace(options.capture_traces, options.run_dir, spec);

  // Fail fast on an unknown circuit and rebuild the inputs the merge
  // needs — the same derivation every worker performs — then publish (or
  // cross-check) run.spec, which workers read their configuration from.
  std::optional<RunInputs> inputs;
  try {
    inputs.emplace(spec);
  } catch (const std::exception& e) {
    return fail(Status::kMalformedInput,
                "cannot build the inputs of circuit '" + spec.circuit +
                    "': " + e.what());
  }
  const Outcome<bool> pinned = pin_run_spec(options.run_dir, spec);
  if (!pinned.ok()) return fail(pinned.status(), pinned.message());

  const auto ranges = shard_ranges(spec.num_buyers, options.num_shards);
  result.shards = ranges.size();
  std::vector<ShardSlot> slots(ranges.size());

  // Lease journal: create fresh, or replay a predecessor's (we are a
  // restarted supervisor) and clean up whatever it left leased.
  const std::string lease_path = lease_journal_path(options.run_dir);
  result.lease_journal = lease_path;
  LeaseJournal leases;
  if (atomic_io::exists(lease_path)) {
    Outcome<LeaseReplay> replayed = read_lease_journal(lease_path);
    if (!replayed.ok()) return fail(replayed.status(), replayed.message());
    const LeaseReplay& replay = replayed.value();
    if (replay.has_header && replay.header != run_header(spec)) {
      return fail(Status::kMalformedInput,
                  "lease journal '" + lease_path +
                      "' belongs to a different run");
    }
    Outcome<LeaseJournal> opened = LeaseJournal::append_to(lease_path, replay);
    if (!opened.ok()) return fail(opened.status(), opened.message());
    leases = std::move(opened).value();
    const std::vector<ShardLease> states = replay.lease_states(ranges.size());
    for (std::size_t s = 0; s < ranges.size(); ++s) {
      slots[s].epoch = states[s].epoch;
      if (states[s].state == ShardState::kDone) {
        slots[s].state = ShardState::kDone;
        ++result.shards_done;
      } else if (states[s].state == ShardState::kLeased) {
        // The holder should already be dead (PDEATHSIG fired when our
        // predecessor died), but never trust "should": kill before the
        // shard can be re-granted, so two workers never share a journal.
        const pid_t holder = static_cast<pid_t>(states[s].pid);
        if (holder > 0 && proc::alive(holder)) {
          proc::kill_hard(holder);
          ++result.workers_killed;
        }
        leases.append(s, states[s].epoch, LeaseEvent::kRevoked,
                      states[s].pid, "supervisor restart");
        slots[s].state = ShardState::kUnassigned;
      }
    }
    log::info("dist.lease.replayed")
        .field("path", lease_path)
        .field("records", replay.records.size())
        .field("shards_done", result.shards_done);
  } else {
    Outcome<LeaseJournal> created =
        LeaseJournal::create(lease_path, run_header(spec));
    if (!created.ok()) return fail(created.status(), created.message());
    leases = std::move(created).value();
  }

  // Kills every leased worker and revokes — the abort path for budget
  // exhaustion and hard failures. The run stays resumable.
  const auto kill_all = [&](const char* why) {
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s].state != ShardState::kLeased) continue;
      proc::kill_hard(slots[s].pid);
      leases.append(s, slots[s].epoch, LeaseEvent::kRevoked,
                    static_cast<std::uint64_t>(slots[s].pid), why);
      slots[s].state = ShardState::kUnassigned;
    }
  };

  // The supervisor's own trace is flushed at the workers' heartbeat
  // cadence: a supervisor SIGKILLed later loses at most one interval of
  // its timeline (the constructor's flush covers the start).
  auto last_flush = std::chrono::steady_clock::now();

  // ------------------------------------------------ supervision loop
  while (result.shards_done < ranges.size()) {
    ODCFP_FAULT_POINT("dist.tick");
    if (run_trace.active() &&
        std::chrono::steady_clock::now() - last_flush >=
            std::chrono::milliseconds(options.heartbeat_interval_ms)) {
      trace::flush();
      last_flush = std::chrono::steady_clock::now();
    }
    if (budget_exhausted(options.budget)) {
      kill_all("supervisor budget exhausted");
      return fail(Status::kExhausted,
                  "supervisor budget exhausted; rerun with the same "
                  "run dir to resume");
    }

    // Grant every unassigned shard to a fresh worker.
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s].state != ShardState::kUnassigned) continue;
      if (slots[s].epoch > 0 && result.regrants >= options.max_regrants) {
        kill_all("regrant cap reached");
        std::ostringstream os;
        os << "shard " << s << " needs a re-grant but the cap of "
           << options.max_regrants
           << " is spent — workers are dying faster than they recover";
        return fail(Status::kExhausted, os.str());
      }
      const std::uint64_t epoch = slots[s].epoch + 1;
      std::vector<std::string> argv = {
          options.worker_binary,
          "--run-dir", options.run_dir,
          "--shard", std::to_string(s),
          "--begin", std::to_string(ranges[s].first),
          "--end", std::to_string(ranges[s].second),
          "--epoch", std::to_string(epoch),
          "--threads", std::to_string(options.worker_threads),
          "--heartbeat-ms", std::to_string(options.heartbeat_interval_ms),
      };
      if (options.capture_traces) {
        argv.push_back("--trace");
        argv.push_back(shard_trace_path(options.run_dir, s, epoch));
      }
      argv.insert(argv.end(), options.extra_worker_args.begin(),
                  options.extra_worker_args.end());
      ODCFP_FAULT_POINT("dist.lease.grant");
      std::string spawn_error;
      const pid_t pid = proc::spawn(argv, &spawn_error);
      if (pid < 0) {
        kill_all("spawn failure");
        return fail(Status::kExhausted,
                    "cannot spawn worker for shard " + std::to_string(s) +
                        ": " + spawn_error);
      }
      // Record the grant AFTER the spawn so the pid is known. A
      // supervisor killed between the two leaves an unrecorded worker —
      // which PDEATHSIG kills with us, so the successor's replay (no
      // grant record) is still truthful.
      if (!leases.append(s, epoch, LeaseEvent::kGranted,
                         static_cast<std::uint64_t>(pid))) {
        proc::kill_hard(pid);
        kill_all("lease journal append failure");
        return fail(Status::kExhausted,
                    "cannot record lease grant for shard " +
                        std::to_string(s));
      }
      if (epoch > 1) ++result.regrants;
      ++result.workers_spawned;
      TELEM_COUNT("dist.workers_spawned", 1);
      slots[s].state = ShardState::kLeased;
      slots[s].epoch = epoch;
      slots[s].pid = pid;
      slots[s].last_size =
          file_size(shard_journal_path(options.run_dir, s));
      slots[s].deadline.emplace(
          Budget::deadline_ms(options.heartbeat_timeout_ms));
      slots[s].last_growth = std::chrono::steady_clock::now();
      trace::instant("dist.lease.granted");
      log::info("dist.lease.granted")
          .field("shard", s)
          .field("epoch", epoch)
          .field("pid", pid);
    }

    // Poll every leased shard: reap exits, watch heartbeats.
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s].state != ShardState::kLeased) continue;
      int exit_code = 0, term_signal = 0;
      const proc::WaitResult wr =
          proc::try_wait(slots[s].pid, &exit_code, &term_signal);
      if (wr == proc::WaitResult::kExited) {
        if (exit_code == kWorkerExitOk) {
          leases.append(s, slots[s].epoch, LeaseEvent::kDone,
                        static_cast<std::uint64_t>(slots[s].pid));
          slots[s].state = ShardState::kDone;
          ++result.shards_done;
          trace::instant("dist.shard.done");
          log::info("dist.shard.done").field("shard", s);
        } else if (exit_code == kWorkerExitResumable) {
          // The worker gave up cleanly mid-range (its budget died, or a
          // transient outlasted its retries); re-grant and resume.
          leases.append(s, slots[s].epoch, LeaseEvent::kRevoked,
                        static_cast<std::uint64_t>(slots[s].pid),
                        "worker exit: resumable");
          slots[s].state = ShardState::kUnassigned;
        } else {
          leases.append(s, slots[s].epoch, LeaseEvent::kRevoked,
                        static_cast<std::uint64_t>(slots[s].pid),
                        "worker exit: code " + std::to_string(exit_code));
          kill_all("sibling shard failed permanently");
          std::ostringstream os;
          os << "worker for shard " << s << " failed permanently (exit "
             << exit_code << ")";
          return fail(exit_code == kWorkerExitInfeasible
                          ? Status::kInfeasible
                          : Status::kMalformedInput,
                      os.str());
        }
      } else if (wr == proc::WaitResult::kSignaled ||
                 wr == proc::WaitResult::kLost) {
        // Crash (SIGKILL, OOM, segfault) — the canonical recovery path:
        // revoke and re-grant; the successor resumes from the journal.
        std::ostringstream os;
        if (wr == proc::WaitResult::kSignaled) {
          os << "worker died by signal " << term_signal;
        } else {
          os << "worker pid lost";
        }
        leases.append(s, slots[s].epoch, LeaseEvent::kRevoked,
                      static_cast<std::uint64_t>(slots[s].pid), os.str());
        slots[s].state = ShardState::kUnassigned;
        TELEM_COUNT("dist.workers_crashed", 1);
        trace::instant("dist.lease.revoked", "worker crashed");
        log::warn("dist.worker.crashed")
            .field("shard", s)
            .field("detail", os.str());
      } else {
        // Still running: any shard journal growth is proof of life
        // (every worker append — lifecycle or heartbeat — is durable).
        const std::uint64_t size =
            file_size(shard_journal_path(options.run_dir, s));
        if (size > slots[s].last_size) {
          slots[s].last_size = size;
          slots[s].deadline.emplace(
              Budget::deadline_ms(options.heartbeat_timeout_ms));
          slots[s].last_growth = std::chrono::steady_clock::now();
        } else if (slots[s].deadline.has_value() &&
                   slots[s].deadline->exhausted()) {
          ODCFP_FAULT_POINT("dist.heartbeat.lost");
          // Wedged (or stopped): it holds the lease but appends
          // nothing. Kill hard — a worker that cannot heartbeat cannot
          // be trusted to finish — then re-grant.
          const std::int64_t heartbeat_age_ms =
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - slots[s].last_growth)
                  .count();
          proc::kill_hard(slots[s].pid);
          leases.append(s, slots[s].epoch, LeaseEvent::kRevoked,
                        static_cast<std::uint64_t>(slots[s].pid),
                        "heartbeat deadline missed");
          slots[s].state = ShardState::kUnassigned;
          ++result.workers_killed;
          TELEM_COUNT("dist.workers_killed", 1);
          trace::instant("dist.lease.revoked", "heartbeat deadline missed");
          log::warn("dist.worker.wedged")
              .field("shard", s)
              .field("pid", slots[s].pid)
              .field("timeout_ms", options.heartbeat_timeout_ms)
              .field("last_heartbeat_age_ms", heartbeat_age_ms);
        }
      }
    }

    if (result.shards_done < ranges.size()) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.poll_interval_ms));
    }
  }

  // ------------------------------------------------ deterministic merge
  MergeResult merged =
      merge_run(options.run_dir, spec, *inputs->book, ranges);
  if (merged.status != Status::kOk) {
    return fail(merged.status, "merge failed: " + merged.message);
  }
  leases.append(0, 0, LeaseEvent::kMerged, 0);
  trace::instant("dist.merged");
  // run_status.json, written once: a pure function of buyers + artifact
  // sizes (no shard geometry), so the file is byte-identical across
  // shard counts, thread counts, and crash schedules — exactly like
  // merged/.
  const std::string status_path = run_status_path(options.run_dir);
  const atomic_io::WriteResult sw = atomic_io::write_file_atomic(
      status_path, render_final_run_status_json(spec.num_buyers,
                                                merged.artifact_sizes));
  if (!sw.ok) {
    return fail(Status::kExhausted,
                "run status publish failed: " + sw.error);
  }
  result.run_status = status_path;
  result.status = Status::kOk;
  result.buyers_committed = spec.num_buyers;
  result.merged_outputs = merged.outputs;
  result.artifacts.reserve(spec.num_buyers);
  for (std::size_t b = 0; b < spec.num_buyers; ++b) {
    result.artifacts.push_back(edition_path(options.run_dir, b));
  }
  log::info("dist.supervise.done")
      .field("shards", result.shards)
      .field("workers_spawned", result.workers_spawned)
      .field("regrants", result.regrants)
      .field("buyers", result.buyers_committed);
  return result;
}

}  // namespace odcfp::dist
