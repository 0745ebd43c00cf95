// Chaos-recovery harness: SIGKILL the batch at journal-fault-point-driven
// instants, resume, and diff the artifacts against an uninterrupted run.
//
// This is the acceptance gate of crash safety. A child process runs one
// c432 order as shard 0 of a run dir (dist::run_shard) with an injector
// that raises SIGKILL at the nth hit of a chosen fault site — the process
// dies with no unwinding, exactly like an OOM kill or a power cut at that
// instant. The parent pins the dir's run.spec before the child starts, so
// every atomic_io hit in the child is an artifact publish, then asserts
// the full recovery contract on the debris:
//
//  * the journal replays cleanly (a torn final record at worst — never
//    mid-file corruption, never an unreadable file when work started);
//  * every artifact present at a FINAL path is byte-complete (atomic
//    publish: a partial file can only ever exist at a temp path);
//  * resuming with the same arguments completes the batch, skipping
//    committed buyers, and every artifact is byte-identical to a run
//    that was never interrupted — at 1, 2, and 8 resume threads;
//  * no temp debris survives a resume, and the run dir reads as done.
//
// Set ODCFP_CHAOS_DIR to keep the journals/artifacts of failing
// scenarios in a known place (the CI chaos job uploads it).
#include <dirent.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/atomic_io.hpp"
#include "common/fault.hpp"
#include "common/journal.hpp"
#include "common/parallel.hpp"
#include "dist/runner.hpp"
#include "dist/status.hpp"

namespace odcfp {
namespace {

constexpr std::size_t kBuyers = 4;

/// Raises SIGKILL — no unwinding, no flushing, the real crash shape —
/// at the nth (1-based) hit of a site matching `prefix`.
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
  return base + "crash_recovery/";
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

/// Empties a run dir: its editions, then its files and the editions dir.
void wipe_dir(const std::string& dir) {
  const std::string editions = dist::editions_dir(dir);
  for (const std::string& name : list_dir(editions)) {
    std::remove((editions + "/" + name).c_str());
  }
  for (const std::string& name : list_dir(dir)) {
    std::remove((dir + "/" + name).c_str());
  }
}

/// Temp files in the run dir and its editions dir.
std::size_t count_temps(const std::string& dir) {
  std::size_t n = 0;
  for (const std::string& d : {dir, dist::editions_dir(dir)}) {
    for (const std::string& name : list_dir(d)) {
      if (name.find(".tmp.") != std::string::npos) ++n;
    }
  }
  return n;
}

std::string artifact_path(const std::string& dir, std::size_t buyer) {
  return dist::editions_dir(dir) + "/edition_" + std::to_string(buyer) +
         ".blif";
}

/// A materialized c432 order: the codebook seed picks the codewords, and
/// the batch seed is BatchOptions' default.
dist::RunSpec chaos_spec(std::uint64_t buyers, std::uint64_t codebook_seed) {
  dist::RunSpec spec;
  spec.circuit = "c432";
  spec.num_buyers = buyers;
  spec.codebook_seed = codebook_seed;
  spec.batch_seed = 42;
  spec.max_delay_overhead = 0;  // exercise crash paths, not delay
  spec.label = "chaos";
  return spec;
}

struct Fixture {
  dist::RunSpec spec = chaos_spec(kBuyers, /*codebook_seed=*/2026);
  dist::RunInputs inputs{spec};

  dist::ResumableBatchResult run(const std::string& dir,
                           ThreadPool* pool = nullptr) const {
    dist::ShardOptions options;
    options.pool = pool;
    return dist::run_shard(dir, spec, inputs, options);
  }
};

/// The uninterrupted reference artifacts, computed once per process.
/// The directory carries the pid: ctest runs every case of this suite as
/// its own process, and a shared reference dir would let one process
/// wipe another's run mid-flight.
const std::vector<std::string>& reference_bytes(const Fixture& f) {
  static std::vector<std::string>* bytes = [] {
    return new std::vector<std::string>();
  }();
  if (bytes->empty()) {
    const std::string dir =
        chaos_base() + "reference_" + std::to_string(::getpid());
    atomic_io::make_dirs(dir);
    wipe_dir(dir);
    const dist::ResumableBatchResult ref = f.run(dir);
    EXPECT_EQ(ref.status, Status::kOk) << ref.message;
    for (std::size_t b = 0; b < kBuyers; ++b) {
      std::string data;
      EXPECT_TRUE(atomic_io::read_file(ref.artifacts[b], &data));
      bytes->push_back(std::move(data));
    }
    // A fresh journal records each buyer's lifecycle and nothing else:
    // no roster of queued records precedes the work.
    const Outcome<JournalReplay> replay = read_journal(ref.journal_path);
    EXPECT_TRUE(replay.ok()) << replay.message();
    const std::vector<BuyerPhase> lifecycle = {
        BuyerPhase::kEmbedding, BuyerPhase::kVerified,
        BuyerPhase::kCommitted};
    std::vector<std::vector<BuyerPhase>> recorded(kBuyers);
    if (replay.ok()) {
      EXPECT_EQ(replay.value().entries.size(), kBuyers * lifecycle.size());
      for (const JournalEntry& e : replay.value().entries) {
        if (e.buyer < kBuyers) recorded[e.buyer].push_back(e.phase);
      }
    }
    for (std::size_t b = 0; b < kBuyers; ++b) {
      EXPECT_EQ(recorded[b], lifecycle) << "buyer " << b;
    }
  }
  return *bytes;
}

/// Pins the dir's run.spec, then forks a child that runs the shard under
/// a SIGKILL injector. Returns true when the child was killed by the
/// injector, false when the fault site was never hit `nth` times and the
/// child completed.
bool run_child_killed_at(const Fixture& f, const std::string& dir,
                         const char* site, std::uint64_t nth) {
  // Pinned here, before any injector exists: the spec's own atomic
  // publish must not consume the child's atomic_io hits.
  const Outcome<bool> pinned = dist::pin_run_spec(dir, f.spec);
  EXPECT_TRUE(pinned.ok()) << pinned.message();
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: no gtest assertions, no exit handlers — _exit only. A
    // serial run keeps the hit order (and thus the crash instant)
    // deterministic.
    KillAtNth killer(nth, site);
    fault::ScopedInjector scoped(&killer);
    const dist::ResumableBatchResult out = f.run(dir);
    ::_exit(out.status == Status::kOk ? 0 : 2);
  }
  int wstatus = 0;
  EXPECT_EQ(::waitpid(pid, &wstatus, 0), pid);
  if (WIFSIGNALED(wstatus)) {
    EXPECT_EQ(WTERMSIG(wstatus), SIGKILL);
    return true;
  }
  EXPECT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0) << "child failed at site " << site
                                     << " nth " << nth;
  return false;
}

/// Post-crash invariants + resume + byte-diff against the reference.
void assert_recovers(const Fixture& f, const std::string& dir,
                     const char* site, std::uint64_t nth) {
  SCOPED_TRACE(std::string("site ") + site + " nth " +
               std::to_string(nth));
  const std::vector<std::string>& ref = reference_bytes(f);

  // 1. The journal, if it exists at all, replays without corruption.
  const std::string journal_path = dist::shard_journal_path(dir, 0);
  if (atomic_io::exists(journal_path)) {
    const Outcome<JournalReplay> replay = read_journal(journal_path);
    ASSERT_TRUE(replay.ok()) << replay.message();
  }

  // 2. Every artifact at a final path is byte-complete right now —
  // BEFORE any recovery runs. Partial bytes may only live at temp paths.
  for (std::size_t b = 0; b < kBuyers; ++b) {
    const std::string path = artifact_path(dir, b);
    if (!atomic_io::exists(path)) continue;
    std::string data;
    ASSERT_TRUE(atomic_io::read_file(path, &data));
    EXPECT_EQ(data, ref[b]) << "partial artifact at final path " << path;
  }

  // 3. Resume completes and matches the uninterrupted run bit for bit.
  const dist::ResumableBatchResult resumed = f.run(dir);
  ASSERT_EQ(resumed.status, Status::kOk) << resumed.message;
  for (std::size_t b = 0; b < kBuyers; ++b) {
    std::string data;
    ASSERT_TRUE(atomic_io::read_file(resumed.artifacts[b], &data));
    EXPECT_EQ(data, ref[b]) << "buyer " << b;
  }

  // 4. No temp debris after a resume, the journal now shows every
  // buyer committed, and the run-dir loader reads the dir as done.
  EXPECT_EQ(count_temps(dir), 0u);
  const Outcome<JournalReplay> final_replay = read_journal(journal_path);
  ASSERT_TRUE(final_replay.ok());
  const std::vector<BuyerPhase> phases =
      final_replay.value().phase_of(kBuyers);
  for (std::size_t b = 0; b < kBuyers; ++b) {
    EXPECT_EQ(phases[b], BuyerPhase::kCommitted) << "buyer " << b;
  }
  const dist::RunStatusView run = dist::load_run(dir);
  EXPECT_EQ(run.state, "done");
  EXPECT_EQ(run.committed, kBuyers);
}

// SIGKILL swept across every distinct phase of the journal protocol:
// journal creation, the first append, mid-run lifecycle appends, the
// commit append (artifact durable, record not), the fsync window, and
// all three steps of an atomic artifact publish.
TEST(CrashRecovery, SigkillAtEveryJournalPhaseResumesByteIdentical) {
  const Fixture f;
  struct Scenario {
    const char* site;
    std::uint64_t nth;
  };
  const Scenario scenarios[] = {
      // Serial hit order: each buyer appends kEmbedding / kVerified /
      // kCommitted (1,2,3 for buyer 0, 4,5,6 for buyer 1, ...), and each
      // append is one journal.append and one journal.fsync hit.
      {"journal.create", 1},  // before the header is durable
      {"journal.append", 1},  // header durable, no record yet
      {"journal.append", 2},  // buyer 0's kVerified record
      {"journal.append", 3},  // a commit record: artifact already durable
      {"journal.fsync", 3},   // commit record written, durability unknown
      {"atomic_io.write", 1}, // partial temp file on disk
      {"atomic_io.fsync", 1}, // full temp, not yet renamed
      {"atomic_io.rename", 2},// second buyer's publish instant
  };
  int scenario_index = 0;
  for (const Scenario& s : scenarios) {
    const std::string dir =
        chaos_base() + "kill_" + std::to_string(scenario_index++);
    atomic_io::make_dirs(dir);
    wipe_dir(dir);
    const bool killed = run_child_killed_at(f, dir, s.site, s.nth);
    EXPECT_TRUE(killed) << "site " << s.site << " nth " << s.nth
                        << " was never reached — scenario is dead";
    assert_recovers(f, dir, s.site, s.nth);
  }
}

// Killing the RESUME, then resuming again: recovery must be idempotent,
// not merely crash-safe on the first run.
TEST(CrashRecovery, SigkillDuringResumeStillRecovers) {
  const Fixture f;
  const std::string dir = chaos_base() + "double_kill";
  atomic_io::make_dirs(dir);
  wipe_dir(dir);
  ASSERT_TRUE(run_child_killed_at(f, dir, "atomic_io.rename", 1));
  // The second run is itself killed while re-stamping the rest.
  run_child_killed_at(f, dir, "journal.append", 3);
  assert_recovers(f, dir, "journal.append", 3);
}

// A journal written while every fresh journal began with one queued
// record per buyer (a roster nothing read) resumes like any other.
TEST(CrashRecovery, RosterJournalResumesByteIdentical) {
  const Fixture f;
  const std::string dir = chaos_base() + "roster";
  atomic_io::make_dirs(dir);
  wipe_dir(dir);
  // Header durable, no record yet; then the roster an older run wrote.
  ASSERT_TRUE(run_child_killed_at(f, dir, "journal.append", 1));
  const std::string path = dist::shard_journal_path(dir, 0);
  const Outcome<JournalReplay> replay = read_journal(path);
  ASSERT_TRUE(replay.ok()) << replay.message();
  Outcome<Journal> journal = Journal::append_to(path, replay.value());
  ASSERT_TRUE(journal.ok()) << journal.message();
  for (std::size_t b = 0; b < kBuyers; ++b) {
    ASSERT_TRUE(journal.value().append(b, BuyerPhase::kQueued));
  }
  journal.value().close();
  assert_recovers(f, dir, "journal.append", 1);
}

// The same crashed state resumed at 1, 2, and 8 threads produces the
// same bytes: per-buyer seeds re-derive from the journal header, never
// from scheduling.
TEST(CrashRecovery, ResumeIsThreadCountInvariant) {
  const Fixture f;
  const std::vector<std::string>& ref = reference_bytes(f);
  const std::string crash_dir = chaos_base() + "invariance_crash";
  atomic_io::make_dirs(crash_dir);
  wipe_dir(crash_dir);
  // Killed at buyer 1's kVerified record.
  ASSERT_TRUE(
      run_child_killed_at(f, crash_dir, "journal.append", 5));

  for (const int threads : {1, 2, 8}) {
    const std::string dir =
        chaos_base() + "invariance_t" + std::to_string(threads);
    atomic_io::make_dirs(dir);
    wipe_dir(dir);
    // Clone the crashed state so each thread count resumes from the
    // identical debris.
    for (const std::string& sub : {std::string(), std::string("/editions")}) {
      ASSERT_TRUE(atomic_io::make_dirs(dir + sub));
      for (const std::string& name : list_dir(crash_dir + sub)) {
        if (name == "editions") continue;
        std::string bytes;
        ASSERT_TRUE(
            atomic_io::read_file(crash_dir + sub + "/" + name, &bytes));
        ASSERT_TRUE(
            atomic_io::write_file_atomic(dir + sub + "/" + name, bytes).ok);
      }
    }
    ThreadPool pool(threads);
    const dist::ResumableBatchResult resumed = f.run(dir, &pool);
    ASSERT_EQ(resumed.status, Status::kOk)
        << threads << " threads: " << resumed.message;
    for (std::size_t b = 0; b < kBuyers; ++b) {
      std::string data;
      ASSERT_TRUE(atomic_io::read_file(resumed.artifacts[b], &data));
      EXPECT_EQ(data, ref[b])
          << "buyer " << b << " at " << threads << " threads";
    }
    EXPECT_EQ(count_temps(dir), 0u);
  }
}

// A journal from a DIFFERENT run (other codebook/config) must be
// rejected before any artifact is touched — resuming someone else's
// journal would silently stamp the wrong editions. The journal header
// refuses it on its own: run_shard never consults run.spec.
TEST(CrashRecovery, ForeignJournalIsRejected) {
  const Fixture f;
  const std::string dir = chaos_base() + "foreign";
  atomic_io::make_dirs(dir);
  wipe_dir(dir);
  // Complete a pinned 2-buyer run in the same directory first.
  const dist::RunSpec other = chaos_spec(2, /*codebook_seed=*/7);
  ASSERT_TRUE(dist::pin_run_spec(dir, other).ok());
  const dist::RunInputs other_inputs(other);
  const dist::ResumableBatchResult first =
      dist::run_shard(dir, other, other_inputs, {});
  ASSERT_EQ(first.status, Status::kOk) << first.message;
  // Now ask for the 4-buyer run against the leftover journal.
  const dist::ResumableBatchResult out = f.run(dir);
  EXPECT_EQ(out.status, Status::kMalformedInput);
  EXPECT_NE(out.message.find("different run"), std::string::npos)
      << out.message;
}

// Deleting or corrupting a committed artifact demotes that buyer: the
// resume re-stamps it instead of trusting the journal record.
TEST(CrashRecovery, MissingOrCorruptArtifactIsRestamped) {
  const Fixture f;
  const std::vector<std::string>& ref = reference_bytes(f);
  const std::string dir = chaos_base() + "demote";
  atomic_io::make_dirs(dir);
  wipe_dir(dir);
  ASSERT_EQ(f.run(dir).status, Status::kOk);
  // Vandalize buyer 1's artifact and delete buyer 2's outright.
  ASSERT_TRUE(
      atomic_io::write_file_atomic(artifact_path(dir, 1), "garbage").ok);
  std::remove(artifact_path(dir, 2).c_str());
  const dist::ResumableBatchResult resumed = f.run(dir);
  ASSERT_EQ(resumed.status, Status::kOk) << resumed.message;
  EXPECT_EQ(resumed.recovered, kBuyers - 2);
  for (std::size_t b = 0; b < kBuyers; ++b) {
    std::string data;
    ASSERT_TRUE(atomic_io::read_file(resumed.artifacts[b], &data));
    EXPECT_EQ(data, ref[b]) << "buyer " << b;
  }
}

// A delay-constraint violation is a permanent verdict and must gate
// BEFORE the artifact is published: committing a violating edition
// would let a later resume recover it as kOk, making interrupted and
// uninterrupted runs disagree about the batch's feasibility.
TEST(CrashRecovery, InfeasibleEditionIsNeverCommitted) {
  const Fixture f;
  const std::string dir = chaos_base() + "infeasible_gate";
  atomic_io::make_dirs(dir);
  wipe_dir(dir);
  dist::RunSpec strict = f.spec;
  strict.max_delay_overhead = 1e-12;  // "no slowdown allowed"
  const dist::ResumableBatchResult first =
      dist::run_shard(dir, strict, f.inputs, {});
  ASSERT_EQ(first.status, Status::kInfeasible) << first.message;
  std::size_t violating = 0;
  for (std::size_t b = 0; b < kBuyers; ++b) {
    if (first.batch.editions[b].status != Status::kInfeasible) continue;
    ++violating;
    EXPECT_TRUE(first.artifacts[b].empty()) << "buyer " << b;
    EXPECT_FALSE(atomic_io::exists(artifact_path(dir, b)))
        << "buyer " << b << " was published despite violating the "
        << "delay constraint";
  }
  EXPECT_GT(violating, 0u);  // full codewords do slow c432 down
  // Resume agreement: the rerun re-stamps the failed buyers, reaches
  // the same verdict, and still publishes nothing for them.
  const dist::ResumableBatchResult again =
      dist::run_shard(dir, strict, f.inputs, {});
  EXPECT_EQ(again.status, Status::kInfeasible) << again.message;
}

}  // namespace
}  // namespace odcfp
