// Service-plane unit + integration tests: wire framing, deterministic
// admission control, the streaming codebook, the durable request log,
// and an in-process Server/Client pair exercising the full degradation
// ladder (completed / degraded / shed) plus cross-thread-count artifact
// determinism.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/benchmarks.hpp"
#include "common/atomic_io.hpp"
#include "common/check.hpp"
#include "common/fault.hpp"
#include "dist/report.hpp"
#include "dist/shard.hpp"
#include "dist/stitch.hpp"
#include "fingerprint/location.hpp"
#include "fingerprint/streaming_codebook.hpp"
#include "gtest/gtest.h"
#include "service/admission.hpp"
#include "service/client.hpp"
#include "service/request_log.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"

namespace odcfp::service {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const char* name) {
  const std::string dir =
      std::string(::testing::TempDir()) + "service_test_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------- wire

class SocketPair {
 public:
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a_ = fds[0];
    b_ = fds[1];
  }
  ~SocketPair() {
    close_a();
    close_b();
  }
  int a() const { return a_; }
  int b() const { return b_; }
  void close_a() {
    if (a_ >= 0) ::close(a_);
    a_ = -1;
  }
  void close_b() {
    if (b_ >= 0) ::close(b_);
    b_ = -1;
  }

 private:
  int a_ = -1;
  int b_ = -1;
};

TEST(ServiceWire, RoundTripsPayload) {
  SocketPair pair;
  std::string error;
  const std::string payload = "submit tenant=acme label=hello world";
  ASSERT_TRUE(wire::send_frame(pair.a(), payload, &error)) << error;
  std::string got;
  EXPECT_EQ(wire::recv_frame(pair.b(), &got, &error, 1000),
            wire::RecvStatus::kOk)
      << error;
  EXPECT_EQ(got, payload);
}

TEST(ServiceWire, RoundTripsEmptyPayload) {
  SocketPair pair;
  std::string error;
  ASSERT_TRUE(wire::send_frame(pair.a(), "", &error)) << error;
  std::string got;
  EXPECT_EQ(wire::recv_frame(pair.b(), &got, &error, 1000),
            wire::RecvStatus::kOk);
  EXPECT_TRUE(got.empty());
}

TEST(ServiceWire, RejectsCorruptedPayload) {
  SocketPair pair;
  std::string error;
  ASSERT_TRUE(wire::send_frame(pair.a(), "stats", &error));
  // Rewrite the frame with one payload byte flipped: receiver must see a
  // CRC mismatch, not a plausible-but-wrong request.
  char buf[64];
  const ssize_t n = ::read(pair.b(), buf, sizeof(buf));
  ASSERT_GT(n, 12);
  buf[n - 1] ^= 0x01;
  SocketPair pair2;
  ASSERT_EQ(::write(pair2.a(), buf, static_cast<std::size_t>(n)), n);
  std::string got;
  EXPECT_EQ(wire::recv_frame(pair2.b(), &got, &error, 1000),
            wire::RecvStatus::kMalformed);
}

TEST(ServiceWire, RejectsBadMagic) {
  SocketPair pair;
  const char junk[12] = {'n', 'o', 'p', 'e', 0, 0, 0, 0, 0, 0, 0, 0};
  ASSERT_EQ(::write(pair.a(), junk, sizeof(junk)),
            static_cast<ssize_t>(sizeof(junk)));
  std::string got, error;
  EXPECT_EQ(wire::recv_frame(pair.b(), &got, &error, 1000),
            wire::RecvStatus::kMalformed);
}

TEST(ServiceWire, RejectsOversizeLength) {
  SocketPair pair;
  char header[12] = {'O', 'F', 'P', '1', 0, 0, 0, 0, 0, 0, 0, 0};
  const std::uint32_t huge = wire::kMaxFramePayload + 1;
  std::memcpy(header + 4, &huge, 4);  // little-endian hosts only (CI is)
  ASSERT_EQ(::write(pair.a(), header, sizeof(header)),
            static_cast<ssize_t>(sizeof(header)));
  std::string got, error;
  EXPECT_EQ(wire::recv_frame(pair.b(), &got, &error, 1000),
            wire::RecvStatus::kMalformed);
}

TEST(ServiceWire, ReportsPeerCloseMidFrame) {
  SocketPair pair;
  const char partial[6] = {'O', 'F', 'P', '1', 9, 0};
  ASSERT_EQ(::write(pair.a(), partial, sizeof(partial)),
            static_cast<ssize_t>(sizeof(partial)));
  pair.close_a();
  std::string got, error;
  EXPECT_EQ(wire::recv_frame(pair.b(), &got, &error, 1000),
            wire::RecvStatus::kClosed);
}

TEST(ServiceWire, TimesOutOnSilentPeer) {
  SocketPair pair;
  std::string got, error;
  EXPECT_EQ(wire::recv_frame(pair.b(), &got, &error, 150),
            wire::RecvStatus::kTimeout);
}

TEST(ServiceWire, FieldLookupMatchesWholeKeysOnly) {
  const std::string payload =
      "submit run_label=outer label=inner detail x=1";
  EXPECT_EQ(wire::verb_of(payload), "submit");
  EXPECT_EQ(wire::get_field(payload, "run_label"), "outer");
  EXPECT_EQ(wire::get_field(payload, "label"), "inner");
  EXPECT_EQ(wire::get_tail_field(payload, "label"), "inner detail x=1");
  std::uint64_t v = 0;
  EXPECT_TRUE(wire::get_u64(payload, "x", &v));
  EXPECT_EQ(v, 1u);
  EXPECT_FALSE(wire::get_u64(payload, "missing", &v));
  EXPECT_FALSE(wire::get_u64("a v=12x", "v", &v));
  EXPECT_FALSE(wire::get_u64("a v=18446744073709551616", "v", &v));
}

// ----------------------------------------------------------- admission

TEST(TokenBucket, DeterministicTakeAndRefill) {
  TokenBucketConfig config;
  config.capacity = 3;
  config.refill_per_sec = 1;
  TokenBucket bucket(config, /*now_ns=*/0);
  EXPECT_TRUE(bucket.try_take(3, 0));
  EXPECT_FALSE(bucket.try_take(1, 0));
  // One second refills one token; partial cost still refused.
  EXPECT_FALSE(bucket.try_take(2, 1'000'000'000ull));
  EXPECT_TRUE(bucket.try_take(1, 1'000'000'000ull));
  // Refill caps at capacity.
  EXPECT_DOUBLE_EQ(bucket.available(1'000'000'000'000ull), 3.0);
}

TEST(TokenBucket, ClockGoingBackwardsHolds) {
  TokenBucketConfig config;
  config.capacity = 2;
  config.refill_per_sec = 1;
  TokenBucket bucket(config, 5'000'000'000ull);
  EXPECT_TRUE(bucket.try_take(2, 5'000'000'000ull));
  // A clock step backwards must not mint tokens (or crash).
  EXPECT_FALSE(bucket.try_take(1, 1'000'000'000ull));
  EXPECT_TRUE(bucket.try_take(1, 6'000'000'000ull));
}

TEST(Admission, CostScalesWithBuyersAndVerify) {
  EXPECT_DOUBLE_EQ(estimate_request_cost(1, false), 1.0);
  EXPECT_DOUBLE_EQ(estimate_request_cost(10, false), 10.0);
  EXPECT_DOUBLE_EQ(estimate_request_cost(10, true), 20.0);
}

TEST(Admission, OverloadRejectsBeforeQuotaIsTouched) {
  TenantQuota metered;
  metered.bucket.capacity = 1;
  metered.bucket.refill_per_sec = 0;
  AdmissionController ctrl({{"acme", metered}}, TenantQuota{},
                           /*queue_capacity=*/4);
  // Full queue: rejected kOverloaded WITHOUT draining acme's only token.
  AdmitDecision d = ctrl.try_admit("acme", 1.0, /*queue_depth=*/4, 0);
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.reason, RejectReason::kOverloaded);
  // The token is still there.
  d = ctrl.try_admit("acme", 1.0, 0, 0);
  EXPECT_TRUE(d.admitted);
  // And now it is gone.
  d = ctrl.try_admit("acme", 1.0, 0, 0);
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.reason, RejectReason::kQuotaExceeded);
}

TEST(Admission, PriorityComesFromTenantQuota) {
  TenantQuota gold;
  gold.priority = 7;
  AdmissionController ctrl({{"gold", gold}}, TenantQuota{}, 8);
  EXPECT_EQ(ctrl.try_admit("gold", 1.0, 0, 0).priority, 7);
  EXPECT_EQ(ctrl.try_admit("anon", 1.0, 0, 0).priority, 0);
  EXPECT_EQ(ctrl.quota_of("gold").priority, 7);
}

TEST(Admission, RejectReasonNamesRoundTrip) {
  for (const RejectReason reason :
       {RejectReason::kMalformed, RejectReason::kOverloaded,
        RejectReason::kQuotaExceeded, RejectReason::kQueueTimeout,
        RejectReason::kShuttingDown}) {
    RejectReason parsed = RejectReason::kNone;
    EXPECT_TRUE(parse_reject_reason(to_string(reason), &parsed));
    EXPECT_EQ(parsed, reason);
  }
  RejectReason parsed = RejectReason::kNone;
  EXPECT_FALSE(parse_reject_reason("gremlins", &parsed));
}

// --------------------------------------------------- streaming codebook

class StreamingCodebookTest : public ::testing::Test {
 protected:
  void SetUp() override {
    golden_ = make_benchmark("c432");
    locations_ = find_locations(golden_);
    ASSERT_FALSE(locations_.empty());
  }
  Netlist golden_;
  std::vector<FingerprintLocation> locations_;
};

TEST_F(StreamingCodebookTest, CodewordsAreDistinct) {
  const std::size_t buyers =
      std::min<std::uint64_t>(64, StreamingCodebook::capacity(locations_));
  StreamingCodebook book(locations_, buyers, /*seed=*/42);
  std::vector<FingerprintCode> codes;
  for (std::size_t b = 0; b < buyers; ++b) {
    codes.push_back(book.code_of(b));
  }
  for (std::size_t i = 0; i < codes.size(); ++i) {
    for (std::size_t j = i + 1; j < codes.size(); ++j) {
      EXPECT_NE(codes[i], codes[j]) << i << " vs " << j;
    }
  }
}

TEST(StreamingCodebookCapacity, RejectsOrdersBeyondCapacity) {
  // c17 has a handful of sites, so its capacity is small enough to
  // exceed in a test: one buyer past it must be a loud refusal.
  Netlist golden = make_benchmark("c17");
  const auto locs = find_locations(golden);
  ASSERT_FALSE(locs.empty());
  const std::uint64_t cap = StreamingCodebook::capacity(locs);
  ASSERT_LT(cap, 1ull << 32);
  EXPECT_THROW(StreamingCodebook(locs, cap + 1, 1), CheckError);
  EXPECT_NO_THROW(StreamingCodebook(locs, cap, 1));
}

TEST_F(StreamingCodebookTest, CapacityMatchesUsableBitsAndSaturates) {
  const std::uint64_t cap = StreamingCodebook::capacity(locations_);
  const std::size_t bits = usable_bits(locations_);
  if (bits >= 63) {
    EXPECT_EQ(cap, 1ull << 63);
  } else {
    EXPECT_EQ(cap, 1ull << bits);
  }
}

// ---------------------------------------------------------- request log

AdmittedRecord make_admitted(std::uint64_t id) {
  AdmittedRecord record;
  record.id = id;
  record.spec.tenant = "acme";
  record.spec.circuit = "c17";
  record.spec.buyers = 4;
  record.spec.seed = 99;
  record.spec.deadline_ms = 1234;
  record.spec.verify = true;
  record.spec.label = "label with spaces";
  record.priority = 3;
  record.wall_ns = 777;
  return record;
}

TEST(RequestLog, RoundTripsRecordsAndPending) {
  const std::string dir = temp_dir("roundtrip");
  const std::string path = dir + "/requests.odcfp";
  auto log = RequestLog::create(path);
  ASSERT_TRUE(log.ok()) << log.message();
  ASSERT_TRUE(log.value().append_admitted(make_admitted(1)));
  ASSERT_TRUE(log.value().append_admitted(make_admitted(2)));
  TerminalRecord term;
  term.id = 1;
  term.outcome = "completed";
  term.committed = 4;
  term.artifact_crc = 0xdeadbeef;
  term.detail = "verified 4/4";
  ASSERT_TRUE(log.value().append_terminal(term));
  log.value().close();

  auto replay = read_request_log(path);
  ASSERT_TRUE(replay.ok()) << replay.message();
  ASSERT_EQ(replay.value().admitted.size(), 2u);
  const AdmittedRecord& first = replay.value().admitted[0];
  EXPECT_EQ(first.spec.tenant, "acme");
  EXPECT_EQ(first.spec.buyers, 4u);
  EXPECT_EQ(first.spec.deadline_ms, 1234u);
  EXPECT_TRUE(first.spec.verify);
  EXPECT_EQ(first.spec.label, "label with spaces");
  EXPECT_EQ(first.priority, 3);
  EXPECT_EQ(first.wall_ns, 777u);
  ASSERT_EQ(replay.value().terminal.count(1), 1u);
  EXPECT_EQ(replay.value().terminal.at(1).artifact_crc, 0xdeadbeefu);
  EXPECT_EQ(replay.value().terminal.at(1).detail, "verified 4/4");
  EXPECT_EQ(replay.value().next_id, 3u);
  // id=2 has no terminal record: it is the replay work list.
  const auto pending = replay.value().pending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].id, 2u);
  EXPECT_FALSE(replay.value().torn_tail);

  // Tenant priorities are signed (`--tenant n:c:r:-1`): every int
  // replays as written, the extremes included.
  const std::string signed_path = dir + "/signed.odcfp";
  auto signed_log = RequestLog::create(signed_path);
  ASSERT_TRUE(signed_log.ok()) << signed_log.message();
  const int priorities[] = {-1, INT_MIN, INT_MAX};
  for (std::uint64_t id = 1; id <= 3; ++id) {
    AdmittedRecord record = make_admitted(id);
    record.priority = priorities[id - 1];
    ASSERT_TRUE(signed_log.value().append_admitted(record));
  }
  signed_log.value().close();
  auto signed_replay = read_request_log(signed_path);
  ASSERT_TRUE(signed_replay.ok()) << signed_replay.message();
  ASSERT_EQ(signed_replay.value().admitted.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(signed_replay.value().admitted[i].priority, priorities[i]);
  }
}

TEST(RequestLog, ToleratesTornTailAndResumesAppending) {
  const std::string dir = temp_dir("torn");
  const std::string path = dir + "/requests.odcfp";
  {
    auto log = RequestLog::create(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log.value().append_admitted(make_admitted(1)));
  }
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "A 00cafe12 id=2 tenant=torn";  // no newline: torn mid-write
  }
  auto replay = read_request_log(path);
  ASSERT_TRUE(replay.ok()) << replay.message();
  EXPECT_TRUE(replay.value().torn_tail);
  ASSERT_EQ(replay.value().admitted.size(), 1u);

  auto log = RequestLog::append_to(path, replay.value());
  ASSERT_TRUE(log.ok()) << log.message();
  ASSERT_TRUE(log.value().append_admitted(make_admitted(2)));
  log.value().close();
  auto replay2 = read_request_log(path);
  ASSERT_TRUE(replay2.ok()) << replay2.message();
  EXPECT_FALSE(replay2.value().torn_tail);
  ASSERT_EQ(replay2.value().admitted.size(), 2u);
  EXPECT_EQ(replay2.value().admitted[1].id, 2u);
}

TEST(RequestLog, RejectsMidFileCorruption) {
  const std::string dir = temp_dir("corrupt");
  const std::string path = dir + "/requests.odcfp";
  {
    auto log = RequestLog::create(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log.value().append_admitted(make_admitted(1)));
    ASSERT_TRUE(log.value().append_admitted(make_admitted(2)));
  }
  std::string contents;
  ASSERT_TRUE(atomic_io::read_file(path, &contents));
  // Flip a byte inside the FIRST record: damage not at EOF is refused.
  const std::size_t at = contents.find("tenant=acme");
  ASSERT_NE(at, std::string::npos);
  contents[at] ^= 0x01;
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << contents;
  }
  auto replay = read_request_log(path);
  EXPECT_FALSE(replay.ok());

  // A CRC-valid admitted record whose priority does not fit an int is
  // corrupt too, never truncated into some other priority.
  const auto admitted_line = [](const char* id, const char* priority) {
    return record_log::format_line(
        'A', std::string("id=") + id +
                 " tenant=acme circuit=c17 buyers=4 seed=99 deadline=1234 "
                 "priority=" + priority + " verify=1 wall=777 label=x");
  };
  for (const char* priority : {"2147483648", "-2147483649", "1x"}) {
    const std::string bad = dir + "/priority.odcfp";
    {
      std::ofstream out(bad, std::ios::trunc | std::ios::binary);
      out << "odcfp-requests 1\n"
          << admitted_line("1", priority) << admitted_line("2", "0");
    }
    EXPECT_FALSE(read_request_log(bad).ok()) << priority;
  }
}

TEST(RequestLog, RefusesEmptyOrForeignFile) {
  const std::string dir = temp_dir("foreign");
  const std::string empty = dir + "/empty.odcfp";
  { std::ofstream out(empty); }
  EXPECT_FALSE(read_request_log(empty).ok());
  const std::string foreign = dir + "/foreign.odcfp";
  {
    std::ofstream out(foreign);
    out << "not a request log\n";
  }
  EXPECT_FALSE(read_request_log(foreign).ok());
}

TEST(RequestLog, DiskFullAppendRollsBackAndStaysAppendable) {
  const std::string dir = temp_dir("disk_full");
  const std::string path = dir + "/requests.odcfp";
  auto log = RequestLog::create(path);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE(log.value().append_admitted(make_admitted(1)));
  std::string before;
  ASSERT_TRUE(atomic_io::read_file(path, &before));

  fault::FailNthDiskFull inj(1, "service.request_log.append",
                             /*count=*/1, /*short_bytes=*/9);
  {
    fault::ScopedInjector scoped(&inj);
    std::string error;
    EXPECT_FALSE(log.value().append_admitted(make_admitted(2), &error));
    EXPECT_NE(error.find("disk full"), std::string::npos) << error;
  }
  EXPECT_EQ(inj.fired(), 1u);
  // Rolled back byte-identically: the half-landed A record is gone, so
  // no replay will ever resurrect a request whose submitter was told
  // "rejected".
  std::string after;
  ASSERT_TRUE(atomic_io::read_file(path, &after));
  EXPECT_EQ(after, before);

  // Space freed: the log keeps working and replays cleanly.
  ASSERT_TRUE(log.value().append_admitted(make_admitted(2)));
  log.value().close();
  auto replay = read_request_log(path);
  ASSERT_TRUE(replay.ok()) << replay.message();
  EXPECT_EQ(replay.value().admitted.size(), 2u);
  EXPECT_FALSE(replay.value().torn_tail);
}

// A daemon whose request log cannot take the A record must REJECT the
// submission (the client never hears "accepted" for work that would be
// lost) and keep serving once the disk recovers.
TEST(ServiceServer, DiskFullAtAdmissionRejectsInsteadOfLying) {
  const std::string dir = temp_dir("admission_disk_full");
  ServiceConfig config;
  config.socket_path = dir + "/svc.sock";
  config.state_dir = dir + "/state";
  config.num_executors = 0;
  config.max_delay_overhead = 0;
  auto server = Server::start(config);
  ASSERT_TRUE(server.ok()) << server.message();
  Client client(config.socket_path);

  RequestSpec spec;
  spec.tenant = "acme";
  spec.circuit = "c17";
  spec.buyers = 3;
  fault::FailNthDiskFull inj(1, "service.request_log.append",
                             /*count=*/1, /*short_bytes=*/12);
  {
    fault::ScopedInjector scoped(&inj);
    auto reply = client.submit(spec);
    ASSERT_TRUE(reply.ok()) << reply.message();
    EXPECT_FALSE(reply.value().accepted);
    EXPECT_EQ(reply.value().reason, RejectReason::kOverloaded);
  }
  EXPECT_EQ(inj.fired(), 1u);
  // Disk recovered: the next submission is admitted and durable.
  auto reply = client.submit(spec);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply.value().accepted);
  server.value()->stop();
  auto replay = read_request_log(Server::request_log_path(config.state_dir));
  ASSERT_TRUE(replay.ok()) << replay.message();
  ASSERT_EQ(replay.value().admitted.size(), 1u);
}

// ------------------------------------------------- server end-to-end

ServiceConfig base_config(const std::string& dir) {
  ServiceConfig config;
  config.socket_path = dir + "/svc.sock";
  config.state_dir = dir + "/state";
  config.num_executors = 1;
  config.pool_threads = 2;
  config.default_deadline_ms = 120'000;
  config.max_delay_overhead = 0;  // c17/c432 cannot meet +10% delay
  return config;
}

/// One request frame straight onto the daemon's socket; returns the
/// reply payload.
std::string raw_round_trip(const std::string& socket_path,
                           const std::string& payload) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(),
              std::min(socket_path.size(), sizeof(addr.sun_path) - 1));
  EXPECT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  std::string error;
  std::string reply;
  EXPECT_TRUE(wire::send_frame(fd, payload, &error)) << error;
  EXPECT_EQ(wire::recv_frame(fd, &reply, &error, 10'000),
            wire::RecvStatus::kOk)
      << error;
  ::close(fd);
  return reply;
}

RequestSpec c17_spec(std::uint64_t seed = 1) {
  RequestSpec spec;
  spec.tenant = "acme";
  spec.circuit = "c17";
  spec.buyers = 3;
  spec.seed = seed;
  return spec;
}

TEST(ServiceServer, CompletesAndVerifiesARequest) {
  const std::string dir = temp_dir("complete");
  auto server = Server::start(base_config(dir));
  ASSERT_TRUE(server.ok()) << server.message();
  Client client(server.value()->socket_path());
  EXPECT_TRUE(client.ping());

  RequestSpec spec = c17_spec();
  spec.verify = true;
  auto reply = client.submit(spec);
  ASSERT_TRUE(reply.ok()) << reply.message();
  ASSERT_TRUE(reply.value().accepted);
  const std::uint64_t id = reply.value().id;

  auto status = client.wait(id, 120'000);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(status.value().state, "completed");
  EXPECT_EQ(status.value().committed, 3u);
  EXPECT_NE(status.value().artifact_crc, 0u);
  EXPECT_EQ(status.value().detail, "verified 3/3");

  // The artifacts exist on disk where run_dir_of says they are.
  const std::string editions =
      Server::run_dir_of(server.value()->state_dir(), id) + "/editions";
  EXPECT_TRUE(fs::exists(editions + "/edition_0.blif"));
  EXPECT_TRUE(fs::exists(editions + "/edition_2.blif"));

  auto stats = client.stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().admitted, 1u);
  EXPECT_EQ(stats.value().completed, 1u);
  server.value()->stop();
}

// A request is shard 0 of its own run dir, so the run-dir readers that
// serve sharded runs read it like any other: finished, every buyer
// committed, with a streaming-codebook run.spec, and the shard's
// committed count and edition latency read from its journal.
TEST(ServiceServer, RequestDirReadsLikeAnyRunDir) {
  const std::string dir = temp_dir("request_dir");
  auto server = Server::start(base_config(dir));
  ASSERT_TRUE(server.ok()) << server.message();
  Client client(server.value()->socket_path());
  auto reply = client.submit(c17_spec(7));
  ASSERT_TRUE(reply.ok()) << reply.message();
  ASSERT_TRUE(reply.value().accepted);
  auto status = client.wait(reply.value().id, 120'000);
  ASSERT_TRUE(status.ok()) << status.message();
  ASSERT_EQ(status.value().state, "completed");
  server.value()->stop();

  const std::string run_dir =
      Server::run_dir_of(server.value()->state_dir(), reply.value().id);
  const Outcome<dist::RunSpec> spec =
      dist::read_run_spec(dist::run_spec_path(run_dir));
  ASSERT_TRUE(spec.ok()) << spec.message();
  EXPECT_EQ(spec.value().codebook, dist::CodebookKind::kStreaming);
  EXPECT_EQ(spec.value().num_buyers, 3u);

  dist::RunReport report = dist::analyze_run(run_dir);
  EXPECT_EQ(report.status, Status::kOk) << report.message;
  dist::read_liveness(run_dir, 5'000, &report);
  EXPECT_EQ(report.state, "done");
  EXPECT_EQ(report.buyers, 3u);
  EXPECT_EQ(report.committed, 3u);
  ASSERT_EQ(report.shards.size(), 1u);
  EXPECT_EQ(report.shards[0].state, dist::ShardState::kDone);
  EXPECT_EQ(report.shards[0].committed, 3u);
  EXPECT_GE(report.shards[0].heartbeat_age_ms, 0);
  EXPECT_FALSE(report.shards[0].stalled);
  EXPECT_TRUE(report.shards[0].have_latency);
  EXPECT_GT(report.shards[0].p50_ns, 0u);
  // No lease journal: the shard journal's records time the run.
  EXPECT_GT(report.makespan_ns, 0u);
  EXPECT_EQ(report.critical_path_shard, 0u);
  EXPECT_GT(report.critical_path_ns, 0u);
  EXPECT_LE(report.critical_path_ns, report.makespan_ns);
  EXPECT_EQ(dist::stitch_run(run_dir).status, Status::kOk);
}

// An order past its circuit's streaming-codeword capacity fails with a
// plain diagnostic before anything is stamped.
TEST(ServiceServer, OrderPastCodewordCapacityFails) {
  const std::string dir = temp_dir("capacity");
  auto server = Server::start(base_config(dir));
  ASSERT_TRUE(server.ok()) << server.message();
  Client client(server.value()->socket_path());
  const Netlist golden = make_benchmark("c17");
  RequestSpec spec = c17_spec();
  spec.buyers = StreamingCodebook::capacity(find_locations(golden)) + 1;
  auto reply = client.submit(spec);
  ASSERT_TRUE(reply.ok()) << reply.message();
  ASSERT_TRUE(reply.value().accepted);
  auto status = client.wait(reply.value().id, 120'000);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(status.value().state, "failed");
  EXPECT_EQ(status.value().committed, 0u);
  EXPECT_EQ(status.value().detail, "buyers exceed codeword capacity of 'c17'");
  server.value()->stop();
}

// A control byte in a logged text field would split its request-log
// record, and a log that does not replay keeps the daemon from ever
// restarting. The shape gate refuses it; the successor starts and drains.
TEST(ServiceServer, ControlBytesInTextFieldsAreRefusedAndTheDaemonRestarts) {
  const std::string dir = temp_dir("control_bytes");
  const ServiceConfig config = base_config(dir);
  {
    auto server = Server::start(config);
    ASSERT_TRUE(server.ok()) << server.message();
    Client client(server.value()->socket_path());
    RequestSpec spec = c17_spec();
    spec.label = "two\nlines";
    auto reply = client.submit(spec);
    ASSERT_TRUE(reply.ok()) << reply.message();
    EXPECT_FALSE(reply.value().accepted);
    EXPECT_EQ(reply.value().reason, RejectReason::kMalformed);
    for (const char* raw :
         {"submit tenant=ac\nme circuit=c17 buyers=2 seed=1 label=x",
          "submit tenant=acme circuit=c17 buyers=2 seed=1 label=tab\there"}) {
      const std::string reply_payload =
          raw_round_trip(server.value()->socket_path(), raw);
      EXPECT_EQ(wire::get_field(reply_payload, "reason"),
                to_string(RejectReason::kMalformed))
          << reply_payload;
    }
    EXPECT_EQ(server.value()->stats().admitted, 0u);
    server.value()->stop();
  }
  auto successor = Server::start(config);
  ASSERT_TRUE(successor.ok()) << successor.message();
  Client client(successor.value()->socket_path());
  auto reply = client.submit(c17_spec());
  ASSERT_TRUE(reply.ok()) << reply.message();
  ASSERT_TRUE(reply.value().accepted);
  auto status = client.wait(reply.value().id, 120'000);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(status.value().state, "completed");
  successor.value()->stop();
}

TEST(ServiceServer, RejectsMalformedRequests) {
  const std::string dir = temp_dir("malformed");
  auto server = Server::start(base_config(dir));
  ASSERT_TRUE(server.ok()) << server.message();
  Client client(server.value()->socket_path());

  RequestSpec spec = c17_spec();
  spec.circuit = "not_a_benchmark";
  auto reply = client.submit(spec);
  ASSERT_TRUE(reply.ok()) << reply.message();
  EXPECT_FALSE(reply.value().accepted);
  EXPECT_EQ(reply.value().reason, RejectReason::kMalformed);

  spec = c17_spec();
  spec.buyers = 0;
  reply = client.submit(spec);
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply.value().accepted);
  EXPECT_EQ(reply.value().reason, RejectReason::kMalformed);

  spec = c17_spec();
  spec.tenant = "";
  reply = client.submit(spec);
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply.value().accepted);
  EXPECT_EQ(reply.value().reason, RejectReason::kMalformed);

  // Numbers the Client cannot even express: one that overflows u64 and
  // one that is not a number. Neither may be admitted as some other value.
  for (const char* raw :
       {"submit tenant=acme circuit=c17 buyers=18446744073709551617 seed=1",
        "submit tenant=acme circuit=c17 buyers=2 seed=12x"}) {
    const std::string reply_payload =
        raw_round_trip(server.value()->socket_path(), raw);
    EXPECT_EQ(wire::verb_of(reply_payload), "rejected") << reply_payload;
    EXPECT_EQ(wire::get_field(reply_payload, "reason"),
              to_string(RejectReason::kMalformed))
        << reply_payload;
  }

  EXPECT_EQ(server.value()->stats().rejected_malformed, 5u);
  EXPECT_EQ(server.value()->stats().admitted, 0u);
  server.value()->stop();
}

TEST(ServiceServer, ShedsExplicitlyWhenQueueIsFull) {
  const std::string dir = temp_dir("overload");
  ServiceConfig config = base_config(dir);
  config.num_executors = 0;  // nothing drains: queue fills and stays full
  config.queue_capacity = 2;
  auto server = Server::start(config);
  ASSERT_TRUE(server.ok()) << server.message();
  Client client(server.value()->socket_path());

  int accepted = 0, overloaded = 0;
  for (int i = 0; i < 5; ++i) {
    auto reply = client.submit(c17_spec(static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(reply.ok()) << reply.message();
    if (reply.value().accepted) {
      ++accepted;
    } else {
      EXPECT_EQ(reply.value().reason, RejectReason::kOverloaded);
      ++overloaded;
    }
  }
  EXPECT_EQ(accepted, 2);
  EXPECT_EQ(overloaded, 3);
  EXPECT_EQ(server.value()->stats().shed_overloaded, 3u);
  EXPECT_EQ(server.value()->stats().queue_depth, 2u);
  server.value()->stop();
}

TEST(ServiceServer, EnforcesTenantQuotas) {
  const std::string dir = temp_dir("quota");
  ServiceConfig config = base_config(dir);
  config.num_executors = 0;
  config.queue_capacity = 64;
  TenantQuota metered;
  metered.bucket.capacity = 2 * 3;  // two 3-buyer requests, no refill
  metered.bucket.refill_per_sec = 0;
  config.tenants["acme"] = metered;
  auto server = Server::start(config);
  ASSERT_TRUE(server.ok()) << server.message();
  Client client(server.value()->socket_path());

  int accepted = 0, quota = 0;
  for (int i = 0; i < 5; ++i) {
    auto reply = client.submit(c17_spec(static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(reply.ok());
    if (reply.value().accepted) {
      ++accepted;
    } else {
      EXPECT_EQ(reply.value().reason, RejectReason::kQuotaExceeded);
      ++quota;
    }
  }
  EXPECT_EQ(accepted, 2);
  EXPECT_EQ(quota, 3);
  // Another tenant is not affected by acme's empty bucket.
  RequestSpec other = c17_spec(9);
  other.tenant = "zenith";
  auto reply = client.submit(other);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply.value().accepted);
  EXPECT_EQ(server.value()->stats().shed_quota, 3u);
  server.value()->stop();
}

TEST(ServiceServer, DegradesOrShedsOnTinyDeadlineInsteadOfHanging) {
  const std::string dir = temp_dir("degrade");
  ServiceConfig config = base_config(dir);
  auto server = Server::start(config);
  ASSERT_TRUE(server.ok()) << server.message();
  Client client(server.value()->socket_path());

  RequestSpec spec;
  spec.tenant = "acme";
  spec.circuit = "c432";
  spec.buyers = 16;
  spec.seed = 5;
  spec.deadline_ms = 1;  // dead (or nearly) by the time it dequeues
  auto reply = client.submit(spec);
  ASSERT_TRUE(reply.ok()) << reply.message();
  ASSERT_TRUE(reply.value().accepted);

  auto status = client.wait(reply.value().id, 120'000);
  ASSERT_TRUE(status.ok()) << status.message();
  // Ladder rungs 2/3: a request whose deadline cannot be met terminates
  // quickly as degraded (partial work committed) or shed_timeout (never
  // started) — never "completed", never stuck.
  EXPECT_TRUE(status.value().state == "degraded" ||
              status.value().state == "shed_timeout")
      << status.value().state;
  EXPECT_LT(status.value().committed, spec.buyers);
  server.value()->stop();
}

TEST(ServiceServer, GracefulStopLeavesQueuedWorkForSuccessorReplay) {
  const std::string dir = temp_dir("handoff");
  ServiceConfig config = base_config(dir);
  config.num_executors = 0;  // admit-only daemon
  auto server = Server::start(config);
  ASSERT_TRUE(server.ok()) << server.message();
  Client client(server.value()->socket_path());
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    auto reply = client.submit(c17_spec(static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(reply.value().accepted);
    ids.push_back(reply.value().id);
  }
  server.value()->stop();

  // Successor on the same state dir replays and finishes all three.
  ServiceConfig config2 = base_config(dir);
  config2.socket_path = dir + "/svc2.sock";
  config2.num_executors = 2;
  auto server2 = Server::start(config2);
  ASSERT_TRUE(server2.ok()) << server2.message();
  EXPECT_EQ(server2.value()->stats().replayed, 3u);
  for (const std::uint64_t id : ids) {
    EXPECT_EQ(server2.value()->wait_terminal(id, 120'000), "completed");
  }
  server2.value()->stop();

  // The durable log agrees: every admitted id has a terminal record.
  auto replay =
      read_request_log(Server::request_log_path(config.state_dir));
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay.value().pending().empty());
  EXPECT_EQ(replay.value().admitted.size(), 3u);
}

TEST(ServiceServer, ArtifactsAreByteIdenticalAcrossThreadCounts) {
  RequestSpec spec;
  spec.tenant = "acme";
  spec.circuit = "c432";
  spec.buyers = 4;
  spec.seed = 31;

  std::vector<std::string> digests;
  for (const int threads : {1, 2, 8}) {
    const std::string dir =
        temp_dir(("threads" + std::to_string(threads)).c_str());
    ServiceConfig config = base_config(dir);
    config.pool_threads = threads;
    auto server = Server::start(config);
    ASSERT_TRUE(server.ok()) << server.message();
    Client client(server.value()->socket_path());
    auto reply = client.submit(spec);
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(reply.value().accepted);
    ASSERT_EQ(server.value()->wait_terminal(reply.value().id, 120'000),
              "completed");
    std::string all;
    for (std::uint64_t b = 0; b < spec.buyers; ++b) {
      std::string one;
      ASSERT_TRUE(atomic_io::read_file(
          Server::run_dir_of(config.state_dir, reply.value().id) +
              "/editions/edition_" + std::to_string(b) + ".blif",
          &one));
      all += one;
    }
    digests.push_back(all);
    server.value()->stop();
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], digests[2]);
}

}  // namespace
}  // namespace odcfp::service
