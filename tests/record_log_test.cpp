// The record-log contract (common/record_log.hpp), run against every log
// built on it: the batch journal, the lease journal and the request log.
// Each must tolerate exactly the damage a crash can leave (a torn final
// line), refuse every other kind as kMalformedInput, roll a disk-full
// append back byte for byte, refuse to extend a file swapped since its
// replay, and keep every record intact under concurrent appends. The
// golden lines at the end pin the on-disk bytes of every record kind.
#include "common/record_log.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_io.hpp"
#include "common/fault.hpp"
#include "common/journal.hpp"
#include "dist/lease.hpp"
#include "dist/shard.hpp"
#include "service/request_log.hpp"

namespace odcfp {
namespace {

JournalHeader run_header() {
  JournalHeader h;
  h.seed = 42;
  h.num_buyers = 4;
  h.config_crc = 0xdeadbeef;
  h.label = "c17 demo run";
  return h;
}

// One adapter per log: how to create it, append its i-th record, replay
// it, reopen it, and where its append fault site is.
struct JournalAdapter {
  using Log = Journal;
  using Replay = JournalReplay;
  static constexpr const char* kName = "journal";
  static constexpr const char* kAppendSite = "journal.append";
  static Outcome<Log> create(const std::string& path) {
    return Journal::create(path, run_header());
  }
  static bool append(Log& log, std::uint64_t i, std::string* error) {
    const std::string artifact = "out/edition " + std::to_string(i) + ".blif";
    return log.append(i, BuyerPhase::kCommitted, artifact, 0x1234u, error);
  }
  static Outcome<Replay> read(const std::string& path) {
    return read_journal(path);
  }
  static Outcome<Log> reopen(const std::string& path, const Replay& r) {
    return Journal::append_to(path, r);
  }
  static std::size_t records(const Replay& r) { return r.entries.size(); }
};

struct LeaseAdapter {
  using Log = dist::LeaseJournal;
  using Replay = dist::LeaseReplay;
  static constexpr const char* kName = "lease";
  static constexpr const char* kAppendSite = "dist.lease.append";
  static Outcome<Log> create(const std::string& path) {
    return dist::LeaseJournal::create(path, run_header());
  }
  static bool append(Log& log, std::uint64_t i, std::string* error) {
    return log.append(i % 3, i + 1, dist::LeaseEvent::kGranted, 100 + i,
                      "granted by test", error);
  }
  static Outcome<Replay> read(const std::string& path) {
    return dist::read_lease_journal(path);
  }
  static Outcome<Log> reopen(const std::string& path, const Replay& r) {
    return dist::LeaseJournal::append_to(path, r);
  }
  static std::size_t records(const Replay& r) { return r.records.size(); }
};

struct RequestLogAdapter {
  using Log = service::RequestLog;
  using Replay = service::RequestLogReplay;
  static constexpr const char* kName = "requests";
  static constexpr const char* kAppendSite = "service.request_log.append";
  static Outcome<Log> create(const std::string& path) {
    return service::RequestLog::create(path);
  }
  static bool append(Log& log, std::uint64_t i, std::string* error) {
    service::AdmittedRecord r;
    r.id = i + 1;
    r.spec.tenant = "acme";
    r.spec.circuit = "c17";
    r.spec.buyers = 4;
    r.spec.seed = i;
    r.spec.label = "label with spaces";
    r.wall_ns = 777;
    return log.append_admitted(r, error);
  }
  static Outcome<Replay> read(const std::string& path) {
    return service::read_request_log(path);
  }
  static Outcome<Log> reopen(const std::string& path, const Replay& r) {
    return service::RequestLog::append_to(path, r);
  }
  static std::size_t records(const Replay& r) { return r.admitted.size(); }
};

template <class T>
class RecordLog : public ::testing::Test {
 protected:
  static std::string path(const char* name) {
    return std::string(::testing::TempDir()) + "record_log_test_" + T::kName +
           "_" + name;
  }

  /// A fresh log holding `n` records; returns its path.
  static std::string populated(const char* name, std::size_t n = 4) {
    const std::string p = path(name);
    std::remove(p.c_str());
    Outcome<typename T::Log> log = T::create(p);
    EXPECT_TRUE(log.ok()) << log.message();
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(T::append(log.value(), i, nullptr));
    }
    return p;
  }

  static std::string bytes_of(const std::string& p) {
    std::string bytes;
    EXPECT_TRUE(atomic_io::read_file(p, &bytes));
    return bytes;
  }

  static void write(const std::string& p, const std::string& bytes) {
    ASSERT_TRUE(atomic_io::write_file_atomic(p, bytes).ok);
  }
};

using Logs =
    ::testing::Types<JournalAdapter, LeaseAdapter, RequestLogAdapter>;
struct LogNames {
  template <class T>
  static std::string GetName(int) {
    return T::kName;
  }
};
TYPED_TEST_SUITE(RecordLog, Logs, LogNames);

// A cut at every byte length — the only damage a crashed append leaves —
// never replays as corruption, and reports a torn tail exactly when the
// cut is not on a line boundary.
TYPED_TEST(RecordLog, TruncationSweepNeverMalformed) {
  const std::string bytes = this->bytes_of(this->populated("sweep_src"));
  const std::string dst = this->path("sweep_dst");
  for (std::size_t len = 1; len <= bytes.size(); ++len) {
    this->write(dst, bytes.substr(0, len));
    const auto out = TypeParam::read(dst);
    ASSERT_TRUE(out.ok()) << "len " << len << ": " << out.message();
    EXPECT_LE(out.value().valid_bytes, len) << "len " << len;
    EXPECT_EQ(out.value().torn_tail, out.value().valid_bytes != len)
        << "len " << len;
  }
  const auto full = TypeParam::read(dst);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(TypeParam::records(full.value()), 4u);
}

// A flipped payload byte in a non-final record is corruption; the same
// flip in the final record is indistinguishable from a torn append.
TYPED_TEST(RecordLog, FlippedByteIsCorruptMidFileAndTornAtTheEnd) {
  const std::string bytes = this->bytes_of(this->populated("flip_src"));
  std::vector<std::size_t> starts;  // line starts
  for (std::size_t pos = 0; pos < bytes.size();
       pos = bytes.find('\n', pos) + 1) {
    starts.push_back(pos);
  }
  const std::size_t first_record = starts[starts.size() - 4];
  const std::size_t last_record = starts.back();
  const std::string dst = this->path("flip_dst");

  std::string bad = bytes;
  bad[first_record + 12] ^= 0x01;
  this->write(dst, bad);
  const auto mid = TypeParam::read(dst);
  EXPECT_EQ(mid.status(), Status::kMalformedInput);
  EXPECT_NE(mid.message().find("corrupt"), std::string::npos)
      << mid.message();

  bad = bytes;
  bad[last_record + 12] ^= 0x01;
  this->write(dst, bad);
  const auto tail = TypeParam::read(dst);
  ASSERT_TRUE(tail.ok()) << tail.message();
  EXPECT_TRUE(tail.value().torn_tail);
  EXPECT_EQ(tail.value().valid_bytes, last_record);
  EXPECT_EQ(TypeParam::records(tail.value()), 3u);
}

TYPED_TEST(RecordLog, EmptyFileIsRejected) {
  const std::string dst = this->path("empty");
  this->write(dst, "");
  const auto out = TypeParam::read(dst);
  EXPECT_EQ(out.status(), Status::kMalformedInput);
  EXPECT_NE(out.message().find("exists but is empty"), std::string::npos)
      << out.message();
}

// A complete first line that is not the magic is a foreign file, even
// when it is the only line: no crash writes a whole wrong line.
TYPED_TEST(RecordLog, ForeignFirstLineIsBadMagic) {
  const std::string dst = this->path("foreign");
  for (const char* foreign : {"not a record log\n", "not a record log\nx\n"}) {
    this->write(dst, foreign);
    const auto out = TypeParam::read(dst);
    EXPECT_EQ(out.status(), Status::kMalformedInput) << foreign;
    EXPECT_NE(out.message().find("bad magic"), std::string::npos)
        << out.message();
  }
}

// ENOSPC after a prefix of the line landed: the append fails, the file
// is rolled back byte for byte, and the log stays appendable.
TYPED_TEST(RecordLog, DiskFullShortAppendRollsBackAndStaysAppendable) {
  for (const std::size_t short_bytes :
       {std::size_t{0}, std::size_t{1}, std::size_t{16},
        std::size_t{10'000}}) {
    const std::string p = this->path("disk_full");
    std::remove(p.c_str());
    Outcome<typename TypeParam::Log> log = TypeParam::create(p);
    ASSERT_TRUE(log.ok()) << log.message();
    ASSERT_TRUE(TypeParam::append(log.value(), 0, nullptr));
    const std::string before = this->bytes_of(p);
    fault::FailNthDiskFull inj(1, TypeParam::kAppendSite, 1, short_bytes);
    {
      fault::ScopedInjector scoped(&inj);
      std::string error;
      EXPECT_FALSE(TypeParam::append(log.value(), 1, &error));
      EXPECT_NE(error.find("disk full"), std::string::npos) << error;
    }
    EXPECT_EQ(inj.fired(), 1u);
    EXPECT_EQ(this->bytes_of(p), before) << "short_bytes=" << short_bytes;
    EXPECT_TRUE(log.value().is_open());
    ASSERT_TRUE(TypeParam::append(log.value(), 1, nullptr));
    const auto out = TypeParam::read(p);
    ASSERT_TRUE(out.ok()) << out.message();
    EXPECT_EQ(TypeParam::records(out.value()), 2u);
    EXPECT_FALSE(out.value().torn_tail);
  }
}

// A file whose magic line changed between replay and reopen — swapped by
// another process, or edited — is refused, not extended.
TYPED_TEST(RecordLog, AppendToRefusesSwappedMagic) {
  const std::string p = this->populated("swap_magic");
  const auto replay = TypeParam::read(p);
  ASSERT_TRUE(replay.ok()) << replay.message();
  std::string bytes = this->bytes_of(p);
  bytes[0] = 'x';
  this->write(p, bytes);
  const auto log = TypeParam::reopen(p, replay.value());
  EXPECT_EQ(log.status(), Status::kMalformedInput);
  EXPECT_NE(log.message().find("magic line no longer valid"),
            std::string::npos)
      << log.message();
}

TYPED_TEST(RecordLog, ConcurrentAppendsReplayIntact) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 25;
  const std::string p = this->populated("concurrent", 0);
  const auto replay = TypeParam::read(p);
  ASSERT_TRUE(replay.ok()) << replay.message();
  Outcome<typename TypeParam::Log> log = TypeParam::reopen(p, replay.value());
  ASSERT_TRUE(log.ok()) << log.message();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        EXPECT_TRUE(TypeParam::append(log.value(), t * kPerThread + i,
                                      nullptr));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const auto out = TypeParam::read(p);
  ASSERT_TRUE(out.ok()) << out.message();
  EXPECT_FALSE(out.value().torn_tail);
  EXPECT_EQ(TypeParam::records(out.value()), kThreads * kPerThread);
}

// A payload holding a newline would split its record into two lines,
// and the second would fail every later replay: each writer refuses it
// (the request log's append, the journal and lease headers, run.spec),
// writes nothing, and stays usable.
TEST(RecordLog, WritersRefuseAPayloadHoldingANewline) {
  const std::string dir = std::string(::testing::TempDir()) +
                          "record_log_test_newline";
  atomic_io::make_dirs(dir);

  const std::string requests = dir + "/requests.odcfp";
  std::remove(requests.c_str());
  auto log = service::RequestLog::create(requests);
  ASSERT_TRUE(log.ok()) << log.message();
  service::AdmittedRecord admitted;
  admitted.id = 1;
  admitted.spec.tenant = "acme";
  admitted.spec.circuit = "c17";
  admitted.spec.buyers = 2;
  admitted.spec.label = "two\nlines";
  std::string error;
  EXPECT_FALSE(log.value().append_admitted(admitted, &error));
  EXPECT_NE(error.find("newline"), std::string::npos) << error;
  admitted.spec.label = "one line";
  EXPECT_TRUE(log.value().append_admitted(admitted, &error)) << error;
  log.value().close();
  const auto replay = service::read_request_log(requests);
  ASSERT_TRUE(replay.ok()) << replay.message();
  ASSERT_EQ(replay.value().admitted.size(), 1u);
  EXPECT_EQ(replay.value().admitted[0].spec.label, "one line");

  JournalHeader header = run_header();
  header.label = "two\nlines";
  const std::string journal = dir + "/shard_0.journal";
  std::remove(journal.c_str());
  const Outcome<Journal> created = Journal::create(journal, header);
  EXPECT_EQ(created.status(), Status::kMalformedInput);
  EXPECT_NE(created.message().find("newline"), std::string::npos);
  EXPECT_FALSE(atomic_io::exists(journal));
  const std::string leases = dir + "/leases.odcfp";
  std::remove(leases.c_str());
  EXPECT_EQ(dist::LeaseJournal::create(leases, header).status(),
            Status::kMalformedInput);
  EXPECT_FALSE(atomic_io::exists(leases));

  dist::RunSpec spec;
  spec.circuit = "c17";
  spec.num_buyers = 2;
  spec.label = "two\nlines";
  const std::string spec_path = dir + "/run.spec";
  std::remove(spec_path.c_str());
  EXPECT_FALSE(dist::write_run_spec(spec_path, spec).ok());
  EXPECT_FALSE(atomic_io::exists(spec_path));
}

// ---- golden lines: one per record kind, as the format has always been
// written. Each must replay, and re-format to the same bytes.

std::string temp_file(const char* name) {
  return std::string(::testing::TempDir()) + "record_log_test_golden_" + name;
}

std::string read_bytes(const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(atomic_io::read_file(path, &bytes));
  return bytes;
}

constexpr const char* kGoldenH =
    "H f9594867 seed=42 buyers=4 config=deadbeef label=c17 demo run\n";

TEST(RecordLogGolden, JournalLinesRoundTrip) {
  const std::string r_line =
      "R 95df8229 seq=0 buyer=3 phase=committed crc=0badf00d "
      "wall=1792230874397300522 artifact=editions/edition 3.blif\n";
  const std::string b_line =
      "B bd94c407 pid=8098 beat=7 wall=1792230874397429622\n";
  const std::string path = temp_file("journal");
  ASSERT_TRUE(atomic_io::write_file_atomic(
                  path, std::string("odcfp-journal 1\n") + kGoldenH + r_line +
                            b_line)
                  .ok);
  const Outcome<JournalReplay> out = read_journal(path);
  ASSERT_TRUE(out.ok()) << out.message();
  ASSERT_EQ(out.value().entries.size(), 1u);
  EXPECT_EQ(out.value().heartbeats, 1u);
  EXPECT_FALSE(out.value().torn_tail);

  const JournalEntry& e = out.value().entries[0];
  EXPECT_EQ(e.artifact, "editions/edition 3.blif");
  EXPECT_EQ(e.artifact_crc, 0x0badf00du);
  EXPECT_EQ(record_log::format_line('R', entry_payload(e)), r_line);
  std::uint64_t pid = 0, beat = 0, wall = 0;
  ASSERT_TRUE(parse_heartbeat_payload(b_line.substr(11, b_line.size() - 12),
                                      &pid, &beat, &wall));
  EXPECT_EQ(out.value().heartbeat_walls, std::vector<std::uint64_t>{wall});
  EXPECT_EQ(record_log::format_line('B', heartbeat_payload(pid, beat, wall)),
            b_line);

  // The header re-formats through the writer itself.
  const std::string created = temp_file("journal_created");
  std::remove(created.c_str());
  ASSERT_TRUE(Journal::create(created, out.value().header).ok());
  EXPECT_EQ(read_bytes(created), std::string("odcfp-journal 1\n") + kGoldenH);
}

TEST(RecordLogGolden, LeaseLineRoundTrips) {
  const std::string l_line =
      "L e5ef69b9 seq=0 shard=2 epoch=5 event=revoked pid=4242 "
      "wall=1792230874398181567 detail=worker died by signal 9\n";
  const std::string path = temp_file("lease");
  ASSERT_TRUE(atomic_io::write_file_atomic(
                  path, std::string("odcfp-leases 1\n") + kGoldenH + l_line)
                  .ok);
  const Outcome<dist::LeaseReplay> out = dist::read_lease_journal(path);
  ASSERT_TRUE(out.ok()) << out.message();
  ASSERT_EQ(out.value().records.size(), 1u);
  EXPECT_EQ(out.value().records[0].detail, "worker died by signal 9");
  EXPECT_EQ(record_log::format_line(
                'L', dist::lease_payload(out.value().records[0])),
            l_line);
}

TEST(RecordLogGolden, RequestLogLinesRoundTrip) {
  const std::string prologue = "odcfp-requests 1\n";
  const std::string a_line =
      "A 7e0cc33e id=17 tenant=acme circuit=c432 buyers=6 "
      "seed=18446744073709551615 deadline=1500 priority=5 verify=1 "
      "wall=1700000000123456789 label=nightly run 3\n";
  const std::string t_line =
      "T a4c1a667 id=17 committed=6 crc=00c0ffee outcome=completed "
      "detail=verified 6/6\n";
  const std::string path = temp_file("requests");
  ASSERT_TRUE(
      atomic_io::write_file_atomic(path, prologue + a_line + t_line).ok);
  const auto out = service::read_request_log(path);
  ASSERT_TRUE(out.ok()) << out.message();
  ASSERT_EQ(out.value().admitted.size(), 1u);
  ASSERT_EQ(out.value().terminal.count(17), 1u);
  EXPECT_EQ(out.value().admitted[0].spec.seed, 18446744073709551615ull);

  const std::string rewritten = temp_file("requests_rewritten");
  std::remove(rewritten.c_str());
  auto log = service::RequestLog::create(rewritten);
  ASSERT_TRUE(log.ok()) << log.message();
  ASSERT_TRUE(log.value().append_admitted(out.value().admitted[0]));
  ASSERT_TRUE(log.value().append_terminal(out.value().terminal.at(17)));
  log.value().close();
  EXPECT_EQ(read_bytes(rewritten), prologue + a_line + t_line);
}

// A materialized spec — every sharded run's — keeps the bytes and the
// run_spec_crc (the lease journal's config checksum) it had before the
// codebook kind existed; these were written by that older build.
TEST(RecordLogGolden, MaterializedRunSpecKeepsItsBytes) {
  dist::RunSpec spec;
  spec.circuit = "c880";
  spec.num_buyers = 64;
  spec.codebook_seed = 23;
  spec.batch_seed = 5;
  spec.max_delay_overhead = 0.1;
  spec.label = "c880 order x64";
  const std::string path = temp_file("materialized.spec");
  ASSERT_TRUE(dist::write_run_spec(path, spec).ok());
  EXPECT_EQ(read_bytes(path),
            "odcfp-runspec 1\n"
            "S 7638da9f circuit=c880 buyers=64 cbseed=23 bseed=5 "
            "overhead=3fb999999999999a label=c880 order x64\n");
  EXPECT_EQ(dist::run_spec_crc(spec), 0x7638da9fu);
}

TEST(RecordLogGolden, OneRecordFilesRoundTrip) {
  const std::string spec_file =
      "odcfp-runspec 1\n"
      "S 68d18c89 circuit=c432 buyers=8 cbseed=11 bseed=12 "
      "overhead=3fa999999999999a label=c432 x8\n";
  const std::string spec_path = temp_file("run.spec");
  ASSERT_TRUE(atomic_io::write_file_atomic(spec_path, spec_file).ok);
  const Outcome<dist::RunSpec> spec = dist::read_run_spec(spec_path);
  ASSERT_TRUE(spec.ok()) << spec.message();
  EXPECT_EQ(spec.value().max_delay_overhead, 0.05);
  ASSERT_TRUE(dist::write_run_spec(spec_path, spec.value()).ok());
  EXPECT_EQ(read_bytes(spec_path), spec_file);
}

}  // namespace
}  // namespace odcfp
