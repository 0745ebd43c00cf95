// Distributed sharding: shard geometry, run-spec and lease-journal wire
// formats, lease state derivation, and the end-to-end supervised run's
// merge determinism (1, 2, and 4 shards must produce byte-identical
// merged artifacts). The kill/wedge recovery paths live in
// dist_chaos_test.cpp; this suite covers the sunny-day protocol.
#include <dirent.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/atomic_io.hpp"
#include "common/journal.hpp"
#include "dist/lease.hpp"
#include "dist/merge.hpp"
#include "dist/runner.hpp"
#include "dist/shard.hpp"
#include "dist/supervisor.hpp"

namespace odcfp::dist {
namespace {

std::string temp_dir(const char* name) {
  return std::string(::testing::TempDir()) + "dist_test_" + name;
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
  spec.num_buyers = 4;
  spec.codebook_seed = 2026;
  spec.batch_seed = 42;
  spec.max_delay_overhead = 0;  // exercise the protocol, not the delay gate
  spec.label = "dist test";
  return spec;
}

DistOptions test_options(const std::string& run_dir,
                         std::size_t shards) {
  DistOptions opt;
  opt.run_dir = run_dir;
  opt.worker_binary = ODCFP_WORKER_BIN;
  opt.num_shards = shards;
  opt.worker_threads = 1;
  opt.heartbeat_interval_ms = 10;
  opt.heartbeat_timeout_ms = 60'000;  // sunny-day: never trip
  opt.poll_interval_ms = 2;
  return opt;
}

// ---- shard geometry ----

TEST(Shard, RangesPartitionExactlyAndNearEvenly) {
  for (const std::size_t n : {1u, 4u, 7u, 16u, 100u}) {
    for (const std::size_t shards : {1u, 2u, 3u, 8u}) {
      const auto ranges = shard_ranges(n, shards);
      ASSERT_EQ(ranges.size(), std::min<std::size_t>(n, shards));
      std::size_t expect_begin = 0;
      std::size_t max_len = 0, min_len = n;
      for (const auto& [b, e] : ranges) {
        EXPECT_EQ(b, expect_begin);  // contiguous, in order, no gaps
        ASSERT_LT(b, e);             // never empty
        max_len = std::max(max_len, e - b);
        min_len = std::min(min_len, e - b);
        expect_begin = e;
      }
      EXPECT_EQ(expect_begin, n);  // covers every buyer exactly once
      EXPECT_LE(max_len - min_len, 1u) << n << "/" << shards;
    }
  }
  EXPECT_TRUE(shard_ranges(0, 4).empty());
  EXPECT_TRUE(shard_ranges(4, 0).empty());
}

// ---- run.spec wire format ----

TEST(Shard, RunSpecRoundTripsBitExactly) {
  const std::string path = fresh_dir("spec") + "/run.spec";
  RunSpec spec = test_spec();
  spec.max_delay_overhead = 0.1;  // not representable in binary exactly
  spec.label = "label with spaces";
  ASSERT_TRUE(write_run_spec(path, spec).ok());
  const Outcome<RunSpec> back = read_run_spec(path);
  ASSERT_TRUE(back.ok()) << back.message();
  EXPECT_EQ(back.value().circuit, spec.circuit);
  EXPECT_EQ(back.value().num_buyers, spec.num_buyers);
  EXPECT_EQ(back.value().codebook_seed, spec.codebook_seed);
  EXPECT_EQ(back.value().batch_seed, spec.batch_seed);
  // Bit-exact, not approximately equal: the spec stores raw IEEE bits.
  EXPECT_EQ(back.value().max_delay_overhead, spec.max_delay_overhead);
  EXPECT_EQ(back.value().label, spec.label);
  EXPECT_EQ(run_spec_crc(back.value()), run_spec_crc(spec));
}

TEST(Shard, RunSpecRoundTripsTheCodebookKind) {
  const std::string dir = fresh_dir("spec_kind");
  const RunSpec materialized = test_spec();
  RunSpec streaming = test_spec();
  streaming.codebook = CodebookKind::kStreaming;
  ASSERT_TRUE(write_run_spec(dir + "/m.spec", materialized).ok());
  ASSERT_TRUE(write_run_spec(dir + "/s.spec", streaming).ok());
  std::string m_bytes, s_bytes;
  ASSERT_TRUE(atomic_io::read_file(dir + "/m.spec", &m_bytes));
  ASSERT_TRUE(atomic_io::read_file(dir + "/s.spec", &s_bytes));
  // Only a streaming spec stores its kind.
  EXPECT_EQ(m_bytes.find("codebook="), std::string::npos) << m_bytes;
  EXPECT_NE(s_bytes.find(" codebook=streaming label=dist test\n"),
            std::string::npos)
      << s_bytes;
  const Outcome<RunSpec> m_back = read_run_spec(dir + "/m.spec");
  const Outcome<RunSpec> s_back = read_run_spec(dir + "/s.spec");
  ASSERT_TRUE(m_back.ok()) << m_back.message();
  ASSERT_TRUE(s_back.ok()) << s_back.message();
  EXPECT_EQ(m_back.value().codebook, CodebookKind::kMaterialized);
  EXPECT_EQ(s_back.value().codebook, CodebookKind::kStreaming);
  EXPECT_EQ(s_back.value().label, "dist test");
  EXPECT_EQ(run_spec_crc(s_back.value()), run_spec_crc(streaming));
  // The two kinds emit different codewords, so a run dir holding one
  // refuses the other.
  EXPECT_NE(run_spec_crc(streaming), run_spec_crc(materialized));
  ASSERT_TRUE(pin_run_spec(dir, materialized).ok());
  EXPECT_TRUE(pin_run_spec(dir, materialized).ok());
  const Outcome<bool> mixed = pin_run_spec(dir, streaming);
  EXPECT_EQ(mixed.status(), Status::kMalformedInput);
  EXPECT_NE(mixed.message().find("different run.spec"), std::string::npos);
}

TEST(Shard, PinRunSpecRefusesZeroBuyersAndWritesNothing) {
  // A run without buyers could never finish, so it never gets a run dir.
  const std::string dir = fresh_dir("spec_zero") + "/run";
  RunSpec spec = test_spec();
  spec.num_buyers = 0;
  const Outcome<bool> pinned = pin_run_spec(dir, spec);
  EXPECT_EQ(pinned.status(), Status::kMalformedInput);
  EXPECT_NE(pinned.message().find("num_buyers must be > 0"),
            std::string::npos)
      << pinned.message();
  EXPECT_FALSE(atomic_io::exists(run_spec_path(dir)));
  EXPECT_FALSE(atomic_io::exists(dir));
}

TEST(Shard, DamagedRunSpecIsRejected) {
  const std::string path = fresh_dir("spec_bad") + "/run.spec";
  ASSERT_TRUE(write_run_spec(path, test_spec()).ok());
  std::string bytes;
  ASSERT_TRUE(atomic_io::read_file(path, &bytes));
  bytes[bytes.size() / 2] ^= 0x4;
  ASSERT_TRUE(atomic_io::write_file_atomic(path, bytes).ok);
  EXPECT_EQ(read_run_spec(path).status(), Status::kMalformedInput);
  EXPECT_EQ(read_run_spec("/nonexistent/run.spec").status(),
            Status::kMalformedInput);
}

// ---- lease journal ----

JournalHeader lease_header() {
  JournalHeader h;
  h.seed = 42;
  h.num_buyers = 4;
  h.config_crc = 0xabad1dea;
  h.label = "lease test";
  return h;
}

TEST(Lease, RecordsRoundTripAndDeriveStates) {
  const std::string path = fresh_dir("lease") + "/leases.odcfp";
  {
    Outcome<LeaseJournal> lj = LeaseJournal::create(path, lease_header());
    ASSERT_TRUE(lj.ok()) << lj.message();
    ASSERT_TRUE(lj.value().append(0, 1, LeaseEvent::kGranted, 100));
    ASSERT_TRUE(lj.value().append(1, 1, LeaseEvent::kGranted, 101));
    ASSERT_TRUE(lj.value().append(0, 1, LeaseEvent::kRevoked, 100,
                                  "heartbeat deadline missed"));
    ASSERT_TRUE(lj.value().append(0, 2, LeaseEvent::kGranted, 102));
    ASSERT_TRUE(lj.value().append(1, 1, LeaseEvent::kDone, 101));
  }
  const Outcome<LeaseReplay> out = read_lease_journal(path);
  ASSERT_TRUE(out.ok()) << out.message();
  const LeaseReplay& r = out.value();
  EXPECT_TRUE(r.has_header);
  EXPECT_EQ(r.header.config_crc, 0xabad1deau);
  ASSERT_EQ(r.records.size(), 5u);
  EXPECT_EQ(r.records[2].detail, "heartbeat deadline missed");
  EXPECT_FALSE(r.merged);

  const std::vector<ShardLease> states = r.lease_states(3);
  EXPECT_EQ(states[0].state, ShardState::kLeased);  // re-granted epoch 2
  EXPECT_EQ(states[0].epoch, 2u);
  EXPECT_EQ(states[0].pid, 102u);
  EXPECT_EQ(states[1].state, ShardState::kDone);
  EXPECT_EQ(states[2].state, ShardState::kUnassigned);
  EXPECT_EQ(states[2].epoch, 0u);

  // Resume, revoke the leftover lease, and finish the run.
  Outcome<LeaseJournal> resumed = LeaseJournal::append_to(path, r);
  ASSERT_TRUE(resumed.ok()) << resumed.message();
  ASSERT_TRUE(resumed.value().append(0, 2, LeaseEvent::kRevoked, 102,
                                     "supervisor restart"));
  ASSERT_TRUE(resumed.value().append(0, 3, LeaseEvent::kGranted, 103));
  ASSERT_TRUE(resumed.value().append(0, 3, LeaseEvent::kDone, 103));
  ASSERT_TRUE(resumed.value().append(0, 0, LeaseEvent::kMerged, 0));
  const Outcome<LeaseReplay> after = read_lease_journal(path);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value().merged);
  const std::vector<ShardLease> final_states =
      after.value().lease_states(2);
  EXPECT_EQ(final_states[0].state, ShardState::kDone);
  EXPECT_EQ(final_states[0].epoch, 3u);
}

TEST(Lease, EmptyFileAndTornTailFollowJournalRules) {
  const std::string dir = fresh_dir("lease_damage");
  const std::string empty = dir + "/empty.odcfp";
  ASSERT_TRUE(atomic_io::write_file_atomic(empty, "").ok);
  const Outcome<LeaseReplay> rejected = read_lease_journal(empty);
  EXPECT_EQ(rejected.status(), Status::kMalformedInput);
  EXPECT_NE(rejected.message().find("exists but is empty"),
            std::string::npos);

  const std::string path = dir + "/leases.odcfp";
  {
    Outcome<LeaseJournal> lj = LeaseJournal::create(path, lease_header());
    ASSERT_TRUE(lj.ok());
    ASSERT_TRUE(lj.value().append(0, 1, LeaseEvent::kGranted, 7));
  }
  std::string bytes;
  ASSERT_TRUE(atomic_io::read_file(path, &bytes));
  // Torn final record: tolerated, replay stops before it.
  ASSERT_TRUE(
      atomic_io::write_file_atomic(path, bytes.substr(0, bytes.size() - 4))
          .ok);
  Outcome<LeaseReplay> torn = read_lease_journal(path);
  ASSERT_TRUE(torn.ok()) << torn.message();
  EXPECT_TRUE(torn.value().torn_tail);
  EXPECT_TRUE(torn.value().records.empty());
  // append_to sweeps the tail; the next record lands cleanly at seq 0.
  Outcome<LeaseJournal> resumed = LeaseJournal::append_to(path, torn.value());
  ASSERT_TRUE(resumed.ok()) << resumed.message();
  ASSERT_TRUE(resumed.value().append(0, 1, LeaseEvent::kGranted, 8));
  const Outcome<LeaseReplay> after = read_lease_journal(path);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after.value().records.size(), 1u);
  EXPECT_EQ(after.value().records[0].pid, 8u);
}

// ---- end-to-end supervised runs ----

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

TEST(Supervisor, ShardCountsProduceByteIdenticalMergedArtifacts) {
  const RunSpec spec = test_spec();
  const std::string ref_dir = fresh_dir("run_1shard");
  const DistResult ref = run_supervised_batch(spec, test_options(ref_dir, 1));
  ASSERT_EQ(ref.status, Status::kOk) << ref.message;
  EXPECT_EQ(ref.shards, 1u);
  EXPECT_EQ(ref.workers_spawned, 1u);
  EXPECT_EQ(ref.buyers_committed, spec.num_buyers);
  ASSERT_EQ(ref.merged_outputs.size(), 3u);
  const RunArtifacts want = collect(ref_dir, ref);
  ASSERT_EQ(want.editions.size(), spec.num_buyers);
  for (const std::string& e : want.editions) EXPECT_FALSE(e.empty());
  EXPECT_NE(want.codebook.find("odcfp-codebook 1"), std::string::npos);
  EXPECT_NE(want.verification.find("\"status\": \"committed\""),
            std::string::npos);

  for (const std::size_t shards : {2u, 4u}) {
    const std::string dir =
        fresh_dir(("run_" + std::to_string(shards) + "shard").c_str());
    const DistResult r =
        run_supervised_batch(spec, test_options(dir, shards));
    ASSERT_EQ(r.status, Status::kOk) << r.message;
    EXPECT_EQ(r.shards, shards);
    EXPECT_EQ(r.workers_spawned, shards);
    EXPECT_EQ(r.regrants, 0u);
    const RunArtifacts got = collect(dir, r);
    // The determinism contract, byte for byte — including across the
    // DIFFERENT run directories (merged files carry relative paths).
    EXPECT_EQ(got.codebook, want.codebook) << shards << " shards";
    EXPECT_EQ(got.verification, want.verification) << shards << " shards";
    EXPECT_EQ(got.telemetry, want.telemetry) << shards << " shards";
    ASSERT_EQ(got.editions.size(), want.editions.size());
    for (std::size_t b = 0; b < want.editions.size(); ++b) {
      EXPECT_EQ(got.editions[b], want.editions[b])
          << "buyer " << b << " at " << shards << " shards";
    }
  }
}

TEST(Supervisor, RerunAfterCompletionIsIdempotent) {
  const RunSpec spec = test_spec();
  const std::string dir = fresh_dir("run_idem");
  const DistResult first =
      run_supervised_batch(spec, test_options(dir, 2));
  ASSERT_EQ(first.status, Status::kOk) << first.message;
  const RunArtifacts want = collect(dir, first);
  // Same run dir, same spec: every shard is already done; no worker is
  // spawned and the merged artifacts are republished byte-identically.
  const DistResult again =
      run_supervised_batch(spec, test_options(dir, 2));
  ASSERT_EQ(again.status, Status::kOk) << again.message;
  EXPECT_EQ(again.workers_spawned, 0u);
  const RunArtifacts got = collect(dir, again);
  EXPECT_EQ(got.codebook, want.codebook);
  EXPECT_EQ(got.verification, want.verification);
  EXPECT_EQ(got.telemetry, want.telemetry);
}

// A finished run dir copied elsewhere merges from its own editions/:
// the merge never follows the paths the commit records name, which
// point into the original, deleted here.
TEST(Supervisor, CopiedRunDirMergesItsOwnEditions) {
  const RunSpec spec = test_spec();
  const std::string original = fresh_dir("run_original");
  const DistResult r = run_supervised_batch(spec, test_options(original, 2));
  ASSERT_EQ(r.status, Status::kOk) << r.message;
  const RunArtifacts want = collect(original, r);
  const std::string copy = fresh_dir("run_copy");
  std::filesystem::copy(original, copy,
                        std::filesystem::copy_options::recursive |
                            std::filesystem::copy_options::overwrite_existing);
  std::filesystem::remove_all(original);
  std::filesystem::remove_all(merged_dir(copy));

  const RunInputs inputs(spec);
  const MergeResult merged = merge_run(
      copy, spec, *inputs.book, shard_ranges(spec.num_buyers, 2));
  ASSERT_EQ(merged.status, Status::kOk) << merged.message;
  std::string codebook, verification, telemetry;
  ASSERT_TRUE(
      atomic_io::read_file(merged_dir(copy) + "/codebook.txt", &codebook));
  ASSERT_TRUE(atomic_io::read_file(merged_dir(copy) + "/verification.json",
                                   &verification));
  ASSERT_TRUE(atomic_io::read_file(merged_dir(copy) + "/telemetry.json",
                                   &telemetry));
  EXPECT_EQ(codebook, want.codebook);
  EXPECT_EQ(verification, want.verification);
  EXPECT_EQ(telemetry, want.telemetry);
}

// run.spec is the one identity of a run: the lease journal and every
// shard journal carry the same header, run_header(spec).
TEST(Supervisor, EveryJournalOfARunCarriesItsSpecHeader) {
  const RunSpec spec = test_spec();
  const std::string dir = fresh_dir("run_headers");
  const DistResult r = run_supervised_batch(spec, test_options(dir, 2));
  ASSERT_EQ(r.status, Status::kOk) << r.message;
  const Outcome<LeaseReplay> leases =
      read_lease_journal(lease_journal_path(dir));
  ASSERT_TRUE(leases.ok()) << leases.message();
  ASSERT_TRUE(leases.value().has_header);
  EXPECT_TRUE(leases.value().header == run_header(spec));
  for (std::size_t s = 0; s < r.shards; ++s) {
    const Outcome<JournalReplay> shard =
        read_journal(shard_journal_path(dir, s));
    ASSERT_TRUE(shard.ok()) << shard.message();
    ASSERT_TRUE(shard.value().has_header) << "shard " << s;
    EXPECT_TRUE(shard.value().header == leases.value().header)
        << "shard " << s;
  }
  EXPECT_EQ(r.shards, 2u);
}

// merge_run holds every shard journal to run_header(spec), a run's only
// shard journal too: one stamped under another codebook seed is not this
// run's, though its buyer count and batch seed match.
TEST(Supervisor, MergeRefusesAShardJournalOfAnotherRun) {
  const RunSpec spec = test_spec();
  const std::string dir = fresh_dir("merge_other_run");
  const ResumableBatchResult stamped = run_shard(dir, spec, {});
  ASSERT_EQ(stamped.status, Status::kOk) << stamped.message;
  RunSpec other = spec;
  other.codebook_seed = spec.codebook_seed + 1;
  const RunInputs inputs(other);
  const MergeResult merged = merge_run(
      dir, other, *inputs.book, shard_ranges(other.num_buyers, 1));
  EXPECT_EQ(merged.status, Status::kMalformedInput);
  EXPECT_NE(merged.message.find("different run"), std::string::npos)
      << merged.message;
  EXPECT_FALSE(atomic_io::exists(merged_dir(dir)));
}

TEST(Supervisor, RejectsMismatchedSpecInUsedRunDir) {
  const std::string dir = fresh_dir("run_mismatch");
  ASSERT_EQ(run_supervised_batch(test_spec(), test_options(dir, 1)).status,
            Status::kOk);
  RunSpec other = test_spec();
  other.batch_seed = 43;
  const DistResult r = run_supervised_batch(other, test_options(dir, 1));
  EXPECT_EQ(r.status, Status::kMalformedInput);
  EXPECT_NE(r.message.find("different run.spec"), std::string::npos)
      << r.message;
}

TEST(Supervisor, RejectsMissingWorkerBinary) {
  DistOptions opt = test_options(fresh_dir("run_nobin"), 1);
  opt.worker_binary = "/nonexistent/odcfp_worker";
  const DistResult r = run_supervised_batch(test_spec(), opt);
  EXPECT_EQ(r.status, Status::kMalformedInput);
  EXPECT_NE(r.message.find("does not exist"), std::string::npos);
}

TEST(Supervisor, WorkerThreadCountsShareOneDeterminismContract) {
  // The same merged bytes at 1 and 2 worker threads (8 is covered by the
  // chaos suite's recovery matrix; this keeps the sunny-day loop fast).
  const RunSpec spec = test_spec();
  const std::string ref_dir = fresh_dir("run_t1");
  const DistResult ref =
      run_supervised_batch(spec, test_options(ref_dir, 2));
  ASSERT_EQ(ref.status, Status::kOk) << ref.message;
  const RunArtifacts want = collect(ref_dir, ref);
  DistOptions opt = test_options(fresh_dir("run_t2"), 2);
  opt.worker_threads = 2;
  const DistResult r = run_supervised_batch(spec, opt);
  ASSERT_EQ(r.status, Status::kOk) << r.message;
  const RunArtifacts got = collect(opt.run_dir, r);
  EXPECT_EQ(got.verification, want.verification);
  EXPECT_EQ(got.telemetry, want.telemetry);
  ASSERT_EQ(got.editions.size(), want.editions.size());
  for (std::size_t b = 0; b < want.editions.size(); ++b) {
    EXPECT_EQ(got.editions[b], want.editions[b]) << "buyer " << b;
  }
}

}  // namespace
}  // namespace odcfp::dist
