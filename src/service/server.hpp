// Long-lived multi-tenant fingerprinting service daemon.
//
// The Server accepts framed requests (service/wire.hpp) on a local unix
// socket, gates them through admission control (service/admission.hpp),
// queues the admitted ones in a bounded priority queue, and executes
// them on a fixed set of executor threads that share ONE ThreadPool —
// ThreadPool's one-loop-at-a-time contract degrades concurrent fan-outs
// to serial execution instead of oversubscribing the host, so N
// executors never spawn N*T threads.
//
// Durability: every admitted request is fsynced into the request log
// (service/request_log.hpp) BEFORE the accepted reply is sent, and each
// request runs as shard 0 of its own run dir, `state_dir/runs/req_<id>`
// (layout: dist/shard.hpp): a streaming-codebook run.spec, written or
// cross-checked before the run, then dist::run_shard — the runner a
// sharded run's workers use — journaling in `shard_0.journal` and
// publishing `editions/`. A daemon killed at any instant — SIGKILL
// included — restarts, replays its logs, and finishes every admitted
// request with byte-identical artifacts; odcfp_report reads a request
// dir like any other run dir. Graceful stop (SIGTERM → stop()) stops
// accepting, cancels in-flight budgets, and deliberately leaves the
// interrupted requests non-terminal: they are the successor's replay
// work list.
//
// Degradation ladder per request (deadline anchored at ADMISSION time,
// on the wall clock, so restarts resume the original deadline):
//   1. run normally under a Budget carrying the remaining deadline;
//   2. deadline dies mid-run → the anytime paths beneath (budgeted
//      window ODC, sim-fallback CEC, per-edition cancellation) return
//      partial results; committed editions stay committed and the
//      request terminates "degraded" with an exact committed count;
//   3. deadline passed before the request ever ran → shed with a
//      durable kQueueTimeout terminal record (never run-with-dead-
//      budget, never silently dropped); replayed requests are exempt,
//      since they may hold committed work to recover.
//
// Requests beyond the queue bound are rejected kOverloaded at submit;
// per-tenant token buckets reject kQuotaExceeded. Both are explicit
// wire-visible rejections — overload never manifests as latency.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/budget.hpp"
#include "service/admission.hpp"
#include "service/request_log.hpp"

namespace odcfp::service {

struct ServiceConfig {
  /// Unix socket the daemon listens on (must fit sockaddr_un).
  std::string socket_path;
  /// State directory: the request log and `runs/req_<id>`, one run dir
  /// per request. Created if missing; an existing request log is
  /// replayed.
  std::string state_dir;
  /// Executor threads running requests. 0 = accept-and-queue only
  /// (deterministic admission tests/bench phases; a later daemon on the
  /// same state dir drains the queue).
  int num_executors = 1;
  /// Size of the ThreadPool shared by all executors.
  int pool_threads = 1;
  /// Bounded request queue; submissions past this are kOverloaded.
  std::size_t queue_capacity = 64;
  /// Deadline for requests that do not carry one.
  std::uint64_t default_deadline_ms = 60'000;
  /// BatchOptions::max_delay_overhead for every request.
  double max_delay_overhead = 0.10;
  /// Per-tenant quotas; tenants not listed get default_quota.
  std::map<std::string, TenantQuota> tenants;
  TenantQuota default_quota;
};

class Server {
 public:
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Creates the state dir, replays the request log (re-enqueuing every
  /// admitted-but-non-terminal request), binds the socket, and starts
  /// the listener + executor threads. kMalformedInput on a corrupt log
  /// or unusable socket path.
  static Outcome<std::unique_ptr<Server>> start(
      const ServiceConfig& config);

  /// Graceful stop: stop accepting, cancel in-flight request budgets,
  /// join all threads. In-flight and queued requests keep their
  /// admitted records and no terminal record — the restart replay set.
  /// Idempotent; also run by the destructor.
  void stop();

  /// Monotonic counters since start (includes replay bookkeeping).
  struct Stats {
    std::uint64_t admitted = 0;     ///< this process (excl. replayed)
    std::uint64_t replayed = 0;     ///< re-enqueued from the log
    std::uint64_t completed = 0;
    std::uint64_t degraded = 0;
    std::uint64_t failed = 0;
    std::uint64_t shed_overloaded = 0;
    std::uint64_t shed_quota = 0;
    std::uint64_t shed_timeout = 0;
    std::uint64_t rejected_malformed = 0;
    std::size_t queue_depth = 0;
  };
  Stats stats() const;

  /// Blocks until request `id` reaches a terminal outcome; returns the
  /// outcome name ("completed", "degraded", "shed_timeout", "failed"),
  /// or "" on timeout / unknown id.
  std::string wait_terminal(std::uint64_t id, std::int64_t timeout_ms);

  const std::string& socket_path() const;
  const std::string& state_dir() const;

  /// Per-request run dir: run.spec, shard_0.journal, editions/.
  static std::string run_dir_of(const std::string& state_dir,
                                std::uint64_t id);
  static std::string request_log_path(const std::string& state_dir);

 private:
  Server();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace odcfp::service
