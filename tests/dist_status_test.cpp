// Status plane tests: the report renderers, the report's reading of a
// run dir (every shard's numbers read from its journal, a damaged lease
// journal included), the real odcfp_report binary, and the determinism
// contract of run_status.json — byte-identical across 1/2/4/8 shards,
// worker thread counts, and a worker SIGKILLed mid-range. Test names
// contain "Status" so the TSan CI job picks them up alongside the dist
// suites.
#include "dist/status.hpp"

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_io.hpp"
#include "common/json_lite.hpp"
#include "common/subprocess.hpp"
#include "dist/lease.hpp"
#include "dist/report.hpp"
#include "dist/runner.hpp"
#include "dist/shard.hpp"
#include "dist/supervisor.hpp"

namespace odcfp::dist {
namespace {

std::string temp_dir(const char* name) {
  return std::string(::testing::TempDir()) + "dist_status_test_" + name;
}

void wipe_dir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  while (const dirent* entry = ::readdir(d)) {
    const std::string n = entry->d_name;
    if (n == "." || n == "..") continue;
    const std::string path = dir + "/" + n;
    if (entry->d_type == DT_DIR) {
      wipe_dir(path);
      ::rmdir(path.c_str());
    } else {
      std::remove(path.c_str());
    }
  }
  ::closedir(d);
}

std::string fresh_dir(const char* name) {
  const std::string dir = temp_dir(name);
  wipe_dir(dir);
  atomic_io::make_dirs(dir);
  return dir;
}

RunSpec test_spec() {
  RunSpec spec;
  spec.circuit = "c432";
  spec.num_buyers = 8;  // divisible by every shard count below
  spec.codebook_seed = 2026;
  spec.batch_seed = 42;
  spec.max_delay_overhead = 0;
  spec.label = "status test";
  return spec;
}

DistOptions test_options(const std::string& run_dir, std::size_t shards) {
  DistOptions opt;
  opt.run_dir = run_dir;
  opt.worker_binary = ODCFP_WORKER_BIN;
  opt.num_shards = shards;
  opt.worker_threads = 1;
  opt.heartbeat_interval_ms = 10;
  opt.heartbeat_timeout_ms = 60'000;
  opt.poll_interval_ms = 2;
  return opt;
}

/// Runs a tool to its exit with stdout and stderr in `dir`/tool.{out,err}
/// and returns its exit code; a tool still running after 60 s is killed
/// and fails the test, so a regression cannot hang the suite.
int run_tool(const std::vector<std::string>& argv, const std::string& dir,
             std::string* out = nullptr, std::string* err = nullptr) {
  proc::SpawnOptions options;
  options.stdout_path = dir + "/tool.out";
  options.stderr_path = dir + "/tool.err";
  std::remove(options.stdout_path.c_str());
  std::remove(options.stderr_path.c_str());
  std::string error;
  const pid_t pid = proc::spawn(argv, options, &error);
  EXPECT_GT(pid, 0) << error;
  if (pid <= 0) return -1;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  int exit_code = -1, term_signal = -1;
  proc::WaitResult wr;
  while ((wr = proc::try_wait(pid, &exit_code, &term_signal)) ==
         proc::WaitResult::kRunning) {
    if (std::chrono::steady_clock::now() >= deadline) {
      proc::kill_hard(pid);
      ADD_FAILURE() << argv[0] << " still running after 60 s";
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(wr, proc::WaitResult::kExited) << "signal " << term_signal;
  if (out != nullptr) atomic_io::read_file(options.stdout_path, out);
  if (err != nullptr) atomic_io::read_file(options.stderr_path, err);
  return wr == proc::WaitResult::kExited ? exit_code : -1;
}

// ---- renderers ----

TEST(Status, FinalRollupIsAPureFunctionOfBuyersAndSizes) {
  const std::vector<std::uint64_t> sizes = {100, 120, 90, 110};
  const std::string a = render_final_run_status_json(4, sizes);
  const std::string b = render_final_run_status_json(4, sizes);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"state\":\"done\""), std::string::npos) << a;
  EXPECT_NE(a.find("\"buyers\":4"), std::string::npos) << a;
  EXPECT_NE(a.find("\"artifact_bytes\""), std::string::npos) << a;
  // No shard geometry and no wall-clock fields may appear.
  EXPECT_EQ(a.find("shard"), std::string::npos) << a;
  EXPECT_EQ(a.find("elapsed"), std::string::npos) << a;
  // Different artifact bytes change the roll-up.
  EXPECT_NE(render_final_run_status_json(4, {100, 120, 90, 111}), a);
}

TEST(Status, RenderersSerializeTheViewDeterministically) {
  RunReport report;
  report.state = "running";
  report.buyers = 8;
  report.committed = 3;
  ShardReportRow row;
  row.shard = 0;
  row.state = ShardState::kLeased;
  row.epochs = 2;
  row.committed = 2;
  row.eps_milli = 8'000;
  row.heartbeat_age_ms = 12;
  report.shards.push_back(row);
  ShardReportRow silent;
  silent.shard = 1;
  silent.state = ShardState::kLeased;
  silent.epochs = 1;
  silent.heartbeat_age_ms = 9'000;
  silent.stalled = true;
  report.shards.push_back(silent);

  const std::string json = render_report_json(report);
  EXPECT_EQ(json, render_report_json(report));
  EXPECT_NE(json.find("\"state\":\"running\""), std::string::npos);
  EXPECT_NE(json.find("{\"shard\":0,\"state\":\"leased\",\"epochs\":2"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"committed\":2,\"eps_milli\":8000"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"heartbeat_age_ms\":9000,\"stalled\":true"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"heartbeat_age_ms\":12,\"stalled\":false"),
            std::string::npos)
      << json;

  const std::string table = render_report_table(report);
  EXPECT_EQ(table, render_report_table(report));
  // Only the silent shard is flagged.
  const std::size_t stalled = table.find("STALLED");
  ASSERT_NE(stalled, std::string::npos) << table;
  EXPECT_EQ(table.find("STALLED", stalled + 1), std::string::npos) << table;
  EXPECT_NE(table.find("leased"), std::string::npos) << table;
  EXPECT_NE(table.find("8.000"), std::string::npos) << table;
  EXPECT_NE(table.find("9000"), std::string::npos) << table;
}

// ---- end-to-end determinism ----

bool read_run_status(const std::string& run_dir, std::string* bytes) {
  return atomic_io::read_file(run_status_path(run_dir), bytes);
}

TEST(Status, RunStatusByteIdenticalAcrossShardAndThreadCounts) {
  const RunSpec spec = test_spec();
  const std::string ref_dir = fresh_dir("run_ref");
  const DistResult ref = run_supervised_batch(spec, test_options(ref_dir, 1));
  ASSERT_EQ(ref.status, Status::kOk) << ref.message;
  ASSERT_FALSE(ref.run_status.empty());
  std::string want;
  ASSERT_TRUE(read_run_status(ref_dir, &want));
  EXPECT_NE(want.find("\"state\":\"done\""), std::string::npos) << want;

  for (const std::size_t shards : {2u, 4u, 8u}) {
    const std::string dir =
        fresh_dir(("run_s" + std::to_string(shards)).c_str());
    const DistResult r = run_supervised_batch(spec, test_options(dir, shards));
    ASSERT_EQ(r.status, Status::kOk) << r.message;
    std::string got;
    ASSERT_TRUE(read_run_status(dir, &got));
    EXPECT_EQ(got, want) << shards << " shards";
  }

  for (const std::size_t threads : {2u, 8u}) {
    DistOptions opt =
        test_options(fresh_dir(("run_t" + std::to_string(threads)).c_str()),
                     2);
    opt.worker_threads = threads;
    const DistResult r = run_supervised_batch(spec, opt);
    ASSERT_EQ(r.status, Status::kOk) << r.message;
    std::string got;
    ASSERT_TRUE(read_run_status(opt.run_dir, &got));
    EXPECT_EQ(got, want) << threads << " worker threads";
  }
}

TEST(StatusChaos, WorkerKillMidRangeNeverCorruptsRunStatus) {
  const RunSpec spec = test_spec();
  const std::string ref_dir = fresh_dir("chaos_ref");
  const DistResult ref = run_supervised_batch(spec, test_options(ref_dir, 1));
  ASSERT_EQ(ref.status, Status::kOk) << ref.message;
  std::string want;
  ASSERT_TRUE(read_run_status(ref_dir, &want));

  // Shard 0's epoch-1 worker SIGKILLs itself at its fifth journal append
  // (buyer 1's `verified` record: buyer 0 is committed, the rest of its
  // range is not); the supervisor must revoke, re-grant, and still
  // converge to the byte-identical roll-up.
  DistOptions chaos = test_options(fresh_dir("chaos_kill"), 2);
  chaos.extra_worker_args = {"--chaos-signal", "kill",
                             "--chaos-site",   "journal.append",
                             "--chaos-nth",    "5",
                             "--chaos-epoch",  "1",
                             "--chaos-shard",  "0"};
  const DistResult r = run_supervised_batch(spec, chaos);
  ASSERT_EQ(r.status, Status::kOk) << r.message;
  EXPECT_GE(r.regrants, 1u);
  std::string got;
  ASSERT_TRUE(read_run_status(chaos.run_dir, &got));
  EXPECT_EQ(got, want);

  // The killed epoch's records and the resumed epoch's replay as one
  // journal per shard, every buyer of the range committed.
  RunReport report = analyze_run(chaos.run_dir);
  read_liveness(chaos.run_dir, 5'000, &report);
  EXPECT_EQ(report.state, "done");
  EXPECT_EQ(report.committed, spec.num_buyers);
  ASSERT_EQ(report.shards.size(), 2u);
  for (const ShardReportRow& shard : report.shards) {
    EXPECT_EQ(shard.committed, spec.num_buyers / 2) << shard.shard;
    EXPECT_FALSE(shard.stalled) << shard.shard;
  }
  EXPECT_EQ(report.shards[0].epochs, 2u);
}

TEST(Status, ReportComposesFromPrimarySources) {
  // An empty run dir has nothing to analyze yet: idle, which --watch
  // keeps polling and a one-shot report refuses.
  const std::string empty = fresh_dir("inspect_empty");
  const RunReport idle = analyze_run(empty);
  EXPECT_EQ(idle.status, Status::kMalformedInput);
  EXPECT_EQ(idle.state, "idle");
  EXPECT_EQ(idle.buyers, 0u);
  EXPECT_TRUE(idle.shards.empty());

  const RunSpec spec = test_spec();
  const std::string dir = fresh_dir("inspect_done");
  const DistResult r = run_supervised_batch(spec, test_options(dir, 2));
  ASSERT_EQ(r.status, Status::kOk) << r.message;

  RunReport done = analyze_run(dir);
  ASSERT_EQ(done.status, Status::kOk) << done.message;
  read_liveness(dir, 5'000, &done);
  EXPECT_EQ(done.state, "done");
  EXPECT_EQ(done.buyers, spec.num_buyers);
  EXPECT_EQ(done.committed, spec.num_buyers);
  ASSERT_EQ(done.shards.size(), 2u);
  for (const ShardReportRow& shard : done.shards) {
    EXPECT_EQ(shard.state, ShardState::kDone);
    EXPECT_EQ(shard.epochs, 1u);
    EXPECT_GE(shard.heartbeat_age_ms, 0);
    EXPECT_FALSE(shard.stalled);
    // Each shard's journal shows its range's 4 buyers committed.
    EXPECT_EQ(shard.committed, spec.num_buyers / 2) << shard.shard;
    EXPECT_GT(shard.eps_milli, 0u) << shard.shard;
  }
}

/// A finished one-shard run without a lease journal, stamped by the
/// runner a daemon request and examples/buyer_batch use.
void stamp_library_run(const std::string& dir, const RunSpec& spec) {
  ASSERT_TRUE(pin_run_spec(dir, spec).ok());
  const ResumableBatchResult r = run_shard(dir, spec, {});
  ASSERT_EQ(r.batch.status, Status::kOk) << r.message;
}

// A lease journal that does not replay loses only what it recorded: the
// report still reads every shard journal on disk (committed count, rate,
// latency) and names the lease journal's error next to them.
TEST(Status, DamagedLeaseJournalStillReadsEveryShardJournal) {
  const RunSpec spec = test_spec();
  const std::string dir = fresh_dir("damaged_leases");
  ASSERT_NO_FATAL_FAILURE(stamp_library_run(dir, spec));
  ASSERT_TRUE(
      atomic_io::write_file_atomic(lease_journal_path(dir), "garbage\n").ok);

  const RunReport report = analyze_run(dir);
  ASSERT_EQ(report.status, Status::kOk) << report.message;
  EXPECT_NE(report.lease_error.find("bad magic line"), std::string::npos)
      << report.lease_error;
  EXPECT_EQ(report.buyers, spec.num_buyers);
  EXPECT_EQ(report.committed, spec.num_buyers);
  ASSERT_EQ(report.shards.size(), 1u);
  EXPECT_EQ(report.shards[0].committed, spec.num_buyers);
  EXPECT_GT(report.shards[0].eps_milli, 0u);
  EXPECT_TRUE(report.shards[0].have_latency);
  EXPECT_GT(report.shards[0].p50_ns, 0u);
  EXPECT_GT(report.makespan_ns, 0u);
  EXPECT_EQ(report.critical_path_shard, 0u);

  // The real tool reads the same, with the shard journal's heartbeat age.
  std::string out;
  ASSERT_EQ(run_tool({ODCFP_REPORT_BIN, dir, "--json"}, dir, &out), 0);
  const jsonlite::Value doc = jsonlite::parse(out);
  EXPECT_EQ(doc.at("committed").raw, std::to_string(spec.num_buyers));
  EXPECT_NE(doc.at("lease_error").str.find("bad magic line"),
            std::string::npos);
  const jsonlite::Value& shard = doc.at("shards").items.at(0);
  EXPECT_TRUE(shard.has("state"));
  EXPECT_TRUE(shard.has("epochs"));
  EXPECT_EQ(shard.at("committed").raw, std::to_string(spec.num_buyers));
  EXPECT_NE(shard.at("eps_milli").raw, "0");
  EXPECT_NE(shard.at("p50_ns").raw, "0");
  EXPECT_GE(std::stoll(shard.at("heartbeat_age_ms").raw), 0);
  EXPECT_FALSE(shard.at("stalled").boolean);
}

// analyze_run reads no clock: one dir analyzed twice renders the same
// bytes, as JSON and as a table.
TEST(Status, ReportOfOneDirRendersIdenticalBytes) {
  const std::string dir = fresh_dir("render_twice");
  ASSERT_NO_FATAL_FAILURE(stamp_library_run(dir, test_spec()));
  const RunReport first = analyze_run(dir);
  ASSERT_EQ(first.status, Status::kOk) << first.message;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const RunReport second = analyze_run(dir);
  EXPECT_EQ(render_report_json(first), render_report_json(second));
  EXPECT_EQ(render_report_table(first), render_report_table(second));
  ASSERT_EQ(first.shards.size(), 1u);
  EXPECT_EQ(first.shards[0].heartbeat_age_ms, -1);
  EXPECT_FALSE(first.shards[0].stalled);
}

// A lease record naming a shard at or past the run's buyer count is
// damage. The reader reports it as the lease journal's error instead of
// sizing per-shard tables by it: shard 10^12 used to abort the run-dir
// tools with bad_alloc, and 2^64-1 wrapped the table size to 0 and
// wrote past its end.
TEST(Status, OutOfRangeLeaseShardIsATypedLeaseError) {
  for (const std::uint64_t shard :
       {std::uint64_t{1'000'000'000'000}, ~std::uint64_t{0}}) {
    SCOPED_TRACE(shard);
    const std::string dir =
        fresh_dir(shard == ~std::uint64_t{0} ? "lease_shard_max"
                                             : "lease_shard_huge");
    ASSERT_TRUE(write_run_spec(run_spec_path(dir), test_spec()).ok());
    JournalHeader header;
    header.seed = 1;
    header.num_buyers = 8;
    header.label = "damaged";
    Outcome<LeaseJournal> created =
        LeaseJournal::create(lease_journal_path(dir), header);
    ASSERT_TRUE(created.ok()) << created.message();
    LeaseJournal journal = std::move(created).value();
    std::string error;
    ASSERT_TRUE(journal.append(7, 1, LeaseEvent::kGranted, 4242, "", &error))
        << error;
    ASSERT_TRUE(
        journal.append(shard, 1, LeaseEvent::kGranted, 4242, "", &error))
        << error;

    const std::string why = "shard " + std::to_string(shard) +
                            " out of range at line 4 (run of 8 buyers)";
    const Outcome<LeaseReplay> replay =
        read_lease_journal(lease_journal_path(dir));
    ASSERT_FALSE(replay.ok());
    EXPECT_EQ(replay.status(), Status::kMalformedInput);
    EXPECT_NE(replay.message().find(why), std::string::npos)
        << replay.message();

    const RunStatusView view = load_run(dir);
    EXPECT_FALSE(view.have_leases);
    EXPECT_NE(view.lease_error.find(why), std::string::npos)
        << view.lease_error;
    EXPECT_TRUE(view.shards.empty());
    EXPECT_EQ(view.buyers, 8u);
    const RunReport report = analyze_run(dir);
    EXPECT_EQ(report.status, Status::kOk);
    EXPECT_EQ(report.lease_error, view.lease_error);

    std::string out;
    EXPECT_EQ(run_tool({ODCFP_REPORT_BIN, dir, "--json"}, dir, &out), 0);
    EXPECT_NE(out.find("\"lease_error\":"), std::string::npos) << out;
    EXPECT_NE(out.find(why), std::string::npos) << out;
  }
}

// The real odcfp_report binary watching a run that never finishes:
// --watch-timeout must convert the would-be hang into the distinct exit
// code 3 (not 2 = usage, not 0 = done) with a diagnostic naming the last
// observed state, so CI jobs watching a wedged run fail loudly. An empty
// dir has nothing to analyze yet, which a watch reads as idle.
TEST(Status, WatchTimeoutExitsDistinctlyOnAnIdleRun) {
  const std::string dir = fresh_dir("watch_timeout");
  std::string diagnostic;
  EXPECT_EQ(run_tool({ODCFP_REPORT_BIN, dir, "--watch", "--json",
                      "--interval-ms", "20", "--watch-timeout", "200"},
                     dir, nullptr, &diagnostic),
            3);
  EXPECT_NE(diagnostic.find("watch timed out"), std::string::npos)
      << diagnostic;
  EXPECT_NE(diagnostic.find("'idle'"), std::string::npos) << diagnostic;

  // Contrast cases: a missing run dir is a usage-class error (2), and a
  // finished run exits 0 well before the timeout.
  EXPECT_EQ(run_tool({ODCFP_REPORT_BIN, dir + "/no-such-dir", "--watch",
                      "--watch-timeout", "200"},
                     dir),
            2);
  const std::string done = fresh_dir("watch_done");
  ASSERT_NO_FATAL_FAILURE(stamp_library_run(done, test_spec()));
  std::string out;
  EXPECT_EQ(run_tool({ODCFP_REPORT_BIN, done, "--watch", "--json",
                      "--watch-timeout", "60000"},
                     dir, &out),
            0);
  EXPECT_NE(out.find("\"state\":\"done\""), std::string::npos) << out;
}

}  // namespace
}  // namespace odcfp::dist
