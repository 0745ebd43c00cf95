// Every tool, and the buyer_batch example, parses each numeric flag
// whole: a value that is not a whole decimal number in range (or, for
// rates and factors, a finite decimal)
// is a usage error — the tool's usage exit code, before any socket, pool
// or run is opened — never an abort, a silent wrap, or a value with its
// trailing bytes dropped. Each case drives the real binary; a spawn that
// is still running after its deadline (a daemon that accepted a bad
// flag) is killed and fails the test.
#include <gtest/gtest.h>

#include <sys/types.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/subprocess.hpp"
#include "dist/shard.hpp"
#include "dist/supervisor.hpp"

#ifndef ODCFP_WORKER_BIN
#error "build must define ODCFP_WORKER_BIN"
#endif
#ifndef ODCFP_BUYER_BATCH_BIN
#error "build must define ODCFP_BUYER_BATCH_BIN"
#endif

namespace odcfp {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      std::string(::testing::TempDir()) + "tool_flags_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Runs `argv` to its exit with its output in `dir`/tool.log and returns
/// the exit code, or 128 + the signal that ended it. A tool still running
/// after 20 s is killed and fails the test.
int run_tool(const std::vector<std::string>& argv, const std::string& dir) {
  proc::SpawnOptions options;
  options.stdout_path = dir + "/tool.log";
  options.stderr_path = dir + "/tool.log";
  std::string error;
  const pid_t pid = proc::spawn(argv, options, &error);
  EXPECT_GT(pid, 0) << error;
  if (pid <= 0) return -1;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  int exit_code = -1, term_signal = -1;
  for (;;) {
    switch (proc::try_wait(pid, &exit_code, &term_signal)) {
      case proc::WaitResult::kExited: return exit_code;
      case proc::WaitResult::kSignaled: return 128 + term_signal;
      case proc::WaitResult::kLost: return -1;
      case proc::WaitResult::kRunning: break;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      proc::kill_hard(pid);
      ADD_FAILURE() << argv[0] << " still running after 20 s";
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

TEST(ToolFlags, WorkerRefusesMalformedNumbers) {
  // A run dir the worker could stamp: a value read with its trailing
  // bytes dropped would run the shard to exit 0.
  const std::string dir = fresh_dir("worker");
  dist::RunSpec spec;
  spec.circuit = "c432";
  spec.num_buyers = 1;
  spec.max_delay_overhead = 0;
  spec.label = "tool flags";
  ASSERT_TRUE(dist::write_run_spec(dist::run_spec_path(dir), spec).ok());
  const auto worker = [&dir](const char* flag, const char* value) {
    std::vector<std::string> argv = {ODCFP_WORKER_BIN, "--run-dir", dir,
                                     "--begin", "0", "--end", "1"};
    argv.push_back(flag);
    argv.push_back(value);
    return run_tool(argv, dir);
  };
  for (const auto& [flag, value] :
       std::vector<std::pair<const char*, const char*>>{
           {"--shard", "abc"},
           {"--shard", "1x"},
           {"--shard", "-1"},
           {"--epoch", "18446744073709551616"},
           {"--threads", "2147483648"},
           {"--heartbeat-ms", "1.5"},
           {"--chaos-nth", ""}}) {
    SCOPED_TRACE(std::string(flag) + " '" + value + "'");
    EXPECT_EQ(worker(flag, value), dist::kWorkerExitMalformed);
  }
  // The same command with a well-formed value stamps the run.
  EXPECT_EQ(worker("--shard", "0"), dist::kWorkerExitOk);
}

TEST(ToolFlags, ClientRefusesMalformedNumbers) {
  // No daemon listens: a value that got past parsing fails to connect
  // (exit 1) instead of being a usage error (exit 2).
  const std::string dir = fresh_dir("client");
  const std::string sock = dir + "/svc.sock";
  const std::vector<std::string> submit = {
      ODCFP_CLIENT_BIN, "--socket",  sock, "submit", "--tenant",
      "t",              "--circuit", "c17"};
  const auto client = [&](std::vector<std::string> argv) {
    return run_tool(argv, dir);
  };
  for (const auto& [flag, value] :
       std::vector<std::pair<const char*, const char*>>{
           {"--buyers", "-1"},
           {"--buyers", "3x"},
           {"--seed", "abc"},
           {"--deadline-ms", "1e3"}}) {
    SCOPED_TRACE(std::string(flag) + " '" + value + "'");
    std::vector<std::string> argv = submit;
    if (std::string(flag) != "--buyers") {
      argv.insert(argv.end(), {"--buyers", "2"});
    }
    argv.insert(argv.end(), {flag, value});
    EXPECT_EQ(client(argv), 2);
  }
  EXPECT_EQ(client({ODCFP_CLIENT_BIN, "--socket", sock, "wait", "--id", "1x"}),
            2);
  EXPECT_EQ(client({ODCFP_CLIENT_BIN, "--socket", sock, "wait", "--id", "1",
                    "--timeout-ms", "-5"}),
            2);
  // Well-formed numbers reach the (absent) daemon.
  std::vector<std::string> argv = submit;
  argv.insert(argv.end(), {"--buyers", "2", "--seed", "7"});
  EXPECT_EQ(client(argv), 1);
}

TEST(ToolFlags, DaemonRefusesMalformedNumbersBeforeListening) {
  const std::string dir = fresh_dir("daemon");
  const std::string sock = dir + "/svc.sock";
  for (const auto& [flag, value] :
       std::vector<std::pair<const char*, const char*>>{
           {"--executors", "abc"},
           {"--pool-threads", "-1"},
           {"--queue-capacity", "64k"},
           {"--default-deadline-ms", " 5"},
           {"--max-delay-overhead", "nan"},
           {"--default-capacity", "inf"},
           {"--default-refill", "1,5"},
           {"--tenant", "gold:1000:0:5x"},
           {"--tenant", "gold:1000:nan:5"},
           {"--tenant", "gold:1000:0:2.5"}}) {
    SCOPED_TRACE(std::string(flag) + " '" + value + "'");
    EXPECT_EQ(run_tool({ODCFP_SERVICED_BIN, "--socket", sock, "--state-dir",
                        dir + "/state", flag, value},
                       dir),
              2);
    EXPECT_FALSE(fs::exists(sock));
  }
}

TEST(ToolFlags, ReportRefusesMalformedNumbers) {
  // An empty run dir: a report that got past parsing exits 1 (nothing
  // to analyze), a usage error exits 2.
  const std::string dir = fresh_dir("report");
  for (const auto& [flag, value] :
       std::vector<std::pair<const char*, const char*>>{
           {"--k", "nan"},
           {"--k", "inf"},
           {"--k", "3x"},
           {"--k", "0.5"},
           {"--threads", "0"},
           {"--threads", "2x"},
           {"--stall-ms", "-5"},
           {"--interval-ms", "20abc"},
           {"--watch-timeout", "1e3"}}) {
    SCOPED_TRACE(std::string(flag) + " '" + value + "'");
    EXPECT_EQ(run_tool({ODCFP_REPORT_BIN, dir, flag, value}, dir), 2);
  }
  EXPECT_EQ(run_tool({ODCFP_REPORT_BIN, dir, "--k", "2.5"}, dir), 1);
}

TEST(ToolFlags, BuyerBatchRefusesMalformedNumbersBeforeTheRunDir) {
  // A value that got past parsing would pin a run.spec in `run`; a usage
  // error exits 2 first, and a 0-buyer order is refused by the run dir.
  const std::string dir = fresh_dir("buyer_batch");
  const std::string run = dir + "/run";
  for (const auto& [buyers, threads] :
       std::vector<std::pair<const char*, const char*>>{
           {"abc", "1"},
           {"8x", "1"},
           {"-1", "1"},
           {"", "1"},
           {"8", "1.5"},
           {"8", "2147483648"}}) {
    SCOPED_TRACE(std::string("buyers '") + buyers + "' threads '" + threads +
                 "'");
    EXPECT_EQ(
        run_tool({ODCFP_BUYER_BATCH_BIN, "c880", buyers, threads, run}, dir),
        2);
    EXPECT_FALSE(fs::exists(run));
  }
  EXPECT_EQ(run_tool({ODCFP_BUYER_BATCH_BIN, "c880", "0", "1", run}, dir), 1);
  EXPECT_FALSE(fs::exists(run));
}

}  // namespace
}  // namespace odcfp
