// Cross-process chaos harness for the distributed supervisor.
//
// This is the acceptance gate of the sharding tentpole. Three shapes of
// failure are injected and the full recovery contract asserted on each:
//
//  * worker crash — every epoch-1 worker SIGKILLs itself at its first
//    artifact rename (the chaos schedule rides the worker command line,
//    because in-process injectors cannot cross an exec boundary); the
//    supervisor revokes the leases and re-grants, and the epoch-2
//    workers resume from the shard journals. Verified at 1, 2, and 8
//    worker threads against an uninterrupted 1-shard reference run.
//  * supervisor crash — a forked child runs the supervisor with a
//    KillAtNth injector on its own fault sites (grant, tick, lease
//    append, merge publish) and dies with no unwinding; its workers die
//    with it via PDEATHSIG. Rerunning the supervisor over the debris
//    replays the lease journal and converges.
//  * wedge — workers SIGSTOP mid-edition: the process freezes (heartbeat
//    thread included), the shard journal stops growing, and the
//    supervisor's heartbeat deadline must detect it, SIGKILL the
//    stopped worker, and re-grant.
//
// In every case the merged artifacts (codebook.txt, verification.json,
// telemetry.json) and every per-buyer edition must be byte-identical to
// the reference run. Set ODCFP_CHAOS_DIR to keep failing-scenario
// debris in a known place (the CI chaos job uploads it).
#include <dirent.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/atomic_io.hpp"
#include "common/fault.hpp"
#include "dist/lease.hpp"
#include "dist/shard.hpp"
#include "dist/supervisor.hpp"

namespace odcfp::dist {
namespace {

constexpr std::size_t kBuyers = 8;

/// Raises SIGKILL at the nth (1-based) hit of a site matching `prefix`.
/// Used against the SUPERVISOR only; workers get their kill schedule via
/// --chaos-* flags instead.
struct KillAtNth : fault::Injector {
  KillAtNth(std::uint64_t nth, const char* prefix)
      : nth_(nth), prefix_(prefix) {}

  void on_point(const char* site) override {
    if (std::strncmp(site, prefix_, std::strlen(prefix_)) != 0) return;
    if (++hits_ == nth_) ::raise(SIGKILL);
  }

  std::uint64_t nth_;
  const char* prefix_;
  std::uint64_t hits_ = 0;
};

std::string chaos_base() {
  const char* env = std::getenv("ODCFP_CHAOS_DIR");
  std::string base =
      env != nullptr && *env != '\0' ? env : ::testing::TempDir();
  if (!base.empty() && base.back() != '/') base += '/';
  return base + "dist_chaos/";
}

std::vector<std::string> list_dir(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (dirent* e = ::readdir(d)) {
    if (std::strcmp(e->d_name, ".") != 0 &&
        std::strcmp(e->d_name, "..") != 0) {
      names.emplace_back(e->d_name);
    }
  }
  ::closedir(d);
  return names;
}

void wipe_tree(const std::string& dir) {
  for (const std::string& name : list_dir(dir)) {
    const std::string path = dir + "/" + name;
    if (DIR* d = ::opendir(path.c_str()); d != nullptr) {
      ::closedir(d);
      wipe_tree(path);
      ::rmdir(path.c_str());
    } else {
      std::remove(path.c_str());
    }
  }
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = chaos_base() + name;
  wipe_tree(dir);
  atomic_io::make_dirs(dir);
  return dir;
}

std::size_t count_temps(const std::string& dir) {
  std::size_t n = 0;
  for (const std::string& name : list_dir(dir)) {
    if (name.find(".tmp.") != std::string::npos) ++n;
  }
  return n;
}

RunSpec chaos_spec() {
  RunSpec spec;
  spec.circuit = "c432";
  spec.num_buyers = kBuyers;
  spec.codebook_seed = 2026;
  spec.batch_seed = 7;
  spec.max_delay_overhead = 0;  // exercise crash paths, not the delay gate
  spec.label = "dist chaos";
  return spec;
}

DistOptions base_options(const std::string& run_dir, std::size_t shards) {
  DistOptions opt;
  opt.run_dir = run_dir;
  opt.worker_binary = ODCFP_WORKER_BIN;
  opt.num_shards = shards;
  opt.worker_threads = 1;
  opt.heartbeat_interval_ms = 10;
  opt.heartbeat_timeout_ms = 60'000;  // crash shapes don't need the deadline
  opt.poll_interval_ms = 2;
  return opt;
}

struct RunArtifacts {
  std::vector<std::string> editions;
  std::string codebook, verification, telemetry;
};

RunArtifacts collect(const std::string& run_dir, const DistResult& r) {
  RunArtifacts a;
  for (const std::string& path : r.artifacts) {
    std::string bytes;
    EXPECT_TRUE(atomic_io::read_file(path, &bytes)) << path;
    a.editions.push_back(std::move(bytes));
  }
  EXPECT_TRUE(atomic_io::read_file(merged_dir(run_dir) + "/codebook.txt",
                                   &a.codebook));
  EXPECT_TRUE(atomic_io::read_file(
      merged_dir(run_dir) + "/verification.json", &a.verification));
  EXPECT_TRUE(atomic_io::read_file(
      merged_dir(run_dir) + "/telemetry.json", &a.telemetry));
  return a;
}

/// The uninterrupted 1-shard reference artifacts, computed once per
/// process. The directory carries the pid: ctest runs every case of this
/// suite as its own process, and a shared reference dir would let one
/// process wipe another's run mid-flight.
const RunArtifacts& reference() {
  static RunArtifacts* ref = [] {
    const std::string dir =
        fresh_dir("reference_" + std::to_string(::getpid()));
    const DistResult r =
        run_supervised_batch(chaos_spec(), base_options(dir, 1));
    EXPECT_EQ(r.status, Status::kOk) << r.message;
    auto* a = new RunArtifacts(collect(dir, r));
    EXPECT_EQ(a->editions.size(), kBuyers);
    return a;
  }();
  return *ref;
}

void expect_identical(const RunArtifacts& got, const std::string& what) {
  const RunArtifacts& want = reference();
  EXPECT_EQ(got.codebook, want.codebook) << what;
  EXPECT_EQ(got.verification, want.verification) << what;
  EXPECT_EQ(got.telemetry, want.telemetry) << what;
  ASSERT_EQ(got.editions.size(), want.editions.size()) << what;
  for (std::size_t b = 0; b < want.editions.size(); ++b) {
    EXPECT_EQ(got.editions[b], want.editions[b])
        << what << ", buyer " << b;
  }
}

// Every epoch-1 worker SIGKILLs itself at its first artifact rename —
// mid-shard, with a published-or-torn temp on disk — and the supervisor
// must re-grant all 8 shards to epoch-2 workers that resume and finish.
// The full thread matrix shares one determinism contract.
TEST(DistChaos, WorkerSigkillMidShardRecoversAtEveryThreadCount) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const std::string what =
        "worker kill, " + std::to_string(threads) + " threads";
    const std::string dir =
        fresh_dir("worker_kill_t" + std::to_string(threads));
    DistOptions opt = base_options(dir, 8);
    opt.worker_threads = threads;
    opt.extra_worker_args = {"--chaos-signal", "kill",
                             "--chaos-site",   "atomic_io.rename",
                             "--chaos-nth",    "1",
                             "--chaos-epoch",  "1"};
    const DistResult r = run_supervised_batch(chaos_spec(), opt);
    ASSERT_EQ(r.status, Status::kOk) << what << ": " << r.message;
    EXPECT_EQ(r.shards, 8u) << what;
    // Deterministic kill schedule: all 8 epoch-1 workers die, all 8
    // shards are re-granted exactly once.
    EXPECT_EQ(r.regrants, 8u) << what;
    EXPECT_EQ(r.workers_spawned, 16u) << what;
    EXPECT_EQ(r.buyers_committed, kBuyers) << what;
    // Recovery swept the dead workers' temp debris.
    EXPECT_EQ(count_temps(editions_dir(dir)), 0u) << what;
    expect_identical(collect(dir, r), what);
  }
}

// SIGKILL the SUPERVISOR at its own fault sites, then rerun it over the
// debris. The lease journal is the supervisor's WAL: the rerun must
// replay it, put down any recorded holder, and converge byte-identically.
TEST(DistChaos, SupervisorSigkillAtEverySiteRecovers) {
  struct Schedule {
    const char* site;
    std::uint64_t nth;
  };
  // grant: before any lease lands / between grants; tick: workers are
  // mid-flight; lease.append: mid-WAL-write; merge.publish: all work
  // done, merged outputs half-published. Tick #2 is the first tick after
  // every lease is granted, so it fires on any host; later ticks race
  // the workers, which can finish a small run within three polls.
  const Schedule schedules[] = {{"dist.lease.grant", 1},
                                {"dist.lease.grant", 3},
                                {"dist.tick", 2},
                                {"dist.lease.append", 5},
                                {"dist.merge.publish", 2}};
  for (const Schedule& s : schedules) {
    const std::string what =
        std::string(s.site) + " #" + std::to_string(s.nth);
    const std::string dir = fresh_dir(
        "super_kill_" + std::string(s.site) + "_" + std::to_string(s.nth));
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      KillAtNth chaos(s.nth, s.site);
      fault::ScopedInjector scoped(&chaos);
      const DistResult r =
          run_supervised_batch(chaos_spec(), base_options(dir, 4));
      // Only the merge.publish schedule can complete before the nth hit
      // (sites firing fewer times than nth would be a silent no-op — treat
      // a clean return as "the schedule ran the whole run" and accept it
      // below via WIFEXITED).
      ::_exit(r.status == Status::kOk ? 0 : 42);
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    if (WIFSIGNALED(wstatus)) {
      EXPECT_EQ(WTERMSIG(wstatus), SIGKILL) << what;
    } else {
      FAIL() << what << ": supervisor was not killed (exit "
             << WEXITSTATUS(wstatus) << ") — schedule never fired";
    }
    // The debris must already be replayable: the lease journal is at
    // worst torn at the tail, never malformed.
    if (atomic_io::exists(lease_journal_path(dir))) {
      const Outcome<LeaseReplay> replay =
          read_lease_journal(lease_journal_path(dir));
      EXPECT_TRUE(replay.ok()) << what << ": " << replay.message();
    }
    // Rerun with the same arguments: replay, revoke, re-grant, finish.
    const DistResult r =
        run_supervised_batch(chaos_spec(), base_options(dir, 4));
    ASSERT_EQ(r.status, Status::kOk) << what << ": " << r.message;
    EXPECT_EQ(r.buyers_committed, kBuyers) << what;
    expect_identical(collect(dir, r), what);
  }
}

// Workers that SIGSTOP mid-edition stop heartbeating without dying. The
// supervisor's deadline must notice the silent shard journal, SIGKILL
// the stopped worker, and re-grant; epoch-2 workers run clean.
TEST(DistChaos, WedgedWorkerIsKilledAndReplaced) {
  const std::string dir = fresh_dir("wedge");
  DistOptions opt = base_options(dir, 2);
  opt.heartbeat_interval_ms = 10;
  opt.heartbeat_timeout_ms = 700;
  opt.poll_interval_ms = 5;
  opt.extra_worker_args = {"--chaos-signal", "stop",
                           "--chaos-site",   "atomic_io.write",
                           "--chaos-nth",    "1",
                           "--chaos-epoch",  "1"};
  const DistResult r = run_supervised_batch(chaos_spec(), opt);
  ASSERT_EQ(r.status, Status::kOk) << r.message;
  // Both epoch-1 workers froze; both were put down by the deadline.
  EXPECT_EQ(r.workers_killed, 2u);
  EXPECT_EQ(r.regrants, 2u);
  EXPECT_EQ(r.workers_spawned, 4u);
  expect_identical(collect(dir, r), "wedge");
}

// The regrant cap turns a crash loop into a clean kExhausted instead of
// spinning forever — and the run stays resumable afterwards.
TEST(DistChaos, RegrantCapConvertsCrashLoopIntoExhausted) {
  const std::string dir = fresh_dir("crash_loop");
  DistOptions opt = base_options(dir, 1);
  // With the cap at 0, the epoch-1 worker's death cannot be recovered
  // in this run: the supervisor must stop instead of respawning.
  opt.max_regrants = 0;
  opt.extra_worker_args = {"--chaos-signal", "kill",
                           "--chaos-site",   "journal.append",
                           "--chaos-nth",    "1",
                           "--chaos-epoch",  "1"};
  const DistResult r = run_supervised_batch(chaos_spec(), opt);
  EXPECT_EQ(r.status, Status::kExhausted) << r.message;
  EXPECT_EQ(r.workers_spawned, 1u);
  // The run stays resumable: a rerun (epoch 2, schedule disarmed)
  // finishes and merges byte-identically.
  opt.max_regrants = 16;
  const DistResult resumed = run_supervised_batch(chaos_spec(), opt);
  ASSERT_EQ(resumed.status, Status::kOk) << resumed.message;
  expect_identical(collect(dir, resumed), "crash loop resume");
}

}  // namespace
}  // namespace odcfp::dist
