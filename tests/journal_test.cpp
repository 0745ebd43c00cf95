// Write-ahead journal: wire format, torn-tail tolerance, corruption
// detection, and the append protocol's fault behavior.
//
// The recovery contract under test (see common/journal.hpp): only the
// FINAL line of a journal can ever be damaged by a crash, and that
// damage is tolerated — replay stops before it and the next writer
// truncates it away. Damage anywhere else cannot have been produced by
// the append protocol and must be reported as kMalformedInput, never
// silently skipped (skipping a committed record would re-stamp a buyer
// and orphan its artifact).
#include "common/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/atomic_io.hpp"
#include "common/fault.hpp"

namespace odcfp {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "journal_test_" + name;
}

JournalHeader header(std::uint64_t seed = 42, std::uint64_t buyers = 4) {
  JournalHeader h;
  h.seed = seed;
  h.num_buyers = buyers;
  h.config_crc = 0xdeadbeef;
  h.label = "c17 demo run";
  return h;
}

/// A journal with a few records spanning the buyer lifecycle.
std::string make_populated(const char* name) {
  const std::string path = temp_path(name);
  std::remove(path.c_str());
  Outcome<Journal> j = Journal::create(path, header());
  EXPECT_TRUE(j.ok()) << j.message();
  EXPECT_TRUE(j.value().append(0, BuyerPhase::kEmbedding));
  EXPECT_TRUE(j.value().append(1, BuyerPhase::kEmbedding));
  EXPECT_TRUE(j.value().append(0, BuyerPhase::kVerified));
  EXPECT_TRUE(j.value().append(0, BuyerPhase::kCommitted,
                               "out/edition_0.blif", 0x12345678));
  EXPECT_TRUE(j.value().append(1, BuyerPhase::kFailed));
  return path;
}

TEST(Journal, PhaseNamesRoundTrip) {
  for (const BuyerPhase p :
       {BuyerPhase::kQueued, BuyerPhase::kEmbedding, BuyerPhase::kVerified,
        BuyerPhase::kCommitted, BuyerPhase::kFailed}) {
    BuyerPhase parsed;
    ASSERT_TRUE(parse_buyer_phase(to_string(p), &parsed));
    EXPECT_EQ(parsed, p);
  }
  BuyerPhase parsed;
  EXPECT_FALSE(parse_buyer_phase("queuedx", &parsed));
  EXPECT_FALSE(parse_buyer_phase("", &parsed));
}

TEST(Journal, RoundTripPreservesHeaderAndRecords) {
  const std::string path = make_populated("roundtrip");
  const Outcome<JournalReplay> out = read_journal(path);
  ASSERT_TRUE(out.ok()) << out.message();
  const JournalReplay& r = out.value();
  EXPECT_TRUE(r.has_header);
  EXPECT_EQ(r.header.seed, 42u);
  EXPECT_EQ(r.header.num_buyers, 4u);
  EXPECT_EQ(r.header.config_crc, 0xdeadbeefu);
  EXPECT_EQ(r.header.label, "c17 demo run");
  EXPECT_FALSE(r.torn_tail);
  ASSERT_EQ(r.entries.size(), 5u);
  EXPECT_EQ(r.next_seq, 5u);
  // Sequence numbers strictly increase in write order.
  for (std::size_t i = 0; i < r.entries.size(); ++i) {
    EXPECT_EQ(r.entries[i].seq, i);
  }
  // The committed record carries its artifact and checksum.
  const JournalEntry* c0 = r.committed(0);
  ASSERT_NE(c0, nullptr);
  EXPECT_EQ(c0->artifact, "out/edition_0.blif");
  EXPECT_EQ(c0->artifact_crc, 0x12345678u);
  EXPECT_EQ(r.committed(1), nullptr);
  // Latest phase per buyer; unmentioned buyers stay queued.
  const std::vector<BuyerPhase> phases = r.phase_of(4);
  EXPECT_EQ(phases[0], BuyerPhase::kCommitted);
  EXPECT_EQ(phases[1], BuyerPhase::kFailed);
  EXPECT_EQ(phases[2], BuyerPhase::kQueued);
  EXPECT_EQ(phases[3], BuyerPhase::kQueued);
}

TEST(Journal, ArtifactPathsMaySpaceAndLabelMayBeEmpty) {
  const std::string path = temp_path("spaces");
  std::remove(path.c_str());
  JournalHeader h = header();
  h.label = "";
  Outcome<Journal> j = Journal::create(path, h);
  ASSERT_TRUE(j.ok());
  ASSERT_TRUE(j.value().append(2, BuyerPhase::kCommitted,
                               "dir with spaces/edition 2.blif", 7));
  const Outcome<JournalReplay> out = read_journal(path);
  ASSERT_TRUE(out.ok()) << out.message();
  EXPECT_EQ(out.value().header.label, "");
  ASSERT_EQ(out.value().entries.size(), 1u);
  EXPECT_EQ(out.value().entries[0].artifact,
            "dir with spaces/edition 2.blif");
}

// Truncating the file at EVERY byte length — the only damage a crashed
// append can produce — must never read as corruption: the replay yields
// exactly the records whose lines survived intact.
TEST(Journal, TruncationSweepNeverMalformed) {
  const std::string src = make_populated("sweep_src");
  std::string bytes;
  ASSERT_TRUE(atomic_io::read_file(src, &bytes));
  const std::string dst = temp_path("sweep_dst");
  std::size_t prev_entries = 0;
  // len == 0 is excluded: an empty-but-existing journal is impossible
  // from a crash (create() writes magic + header in one write) and is
  // rejected with its own diagnostic — see EmptyFileIsRejected.
  for (std::size_t len = 1; len <= bytes.size(); ++len) {
    std::remove(dst.c_str());
    ASSERT_TRUE(
        atomic_io::write_file_atomic(dst, bytes.substr(0, len)).ok);
    const Outcome<JournalReplay> out = read_journal(dst);
    ASSERT_TRUE(out.ok()) << "len " << len << ": " << out.message();
    const JournalReplay& r = out.value();
    EXPECT_LE(r.valid_bytes, len) << "len " << len;
    // A cut that does not land exactly on a newline reports a torn tail.
    EXPECT_EQ(r.torn_tail, r.valid_bytes != len) << "len " << len;
    if (len == bytes.size()) {
      EXPECT_EQ(r.entries.size(), 5u);
      EXPECT_FALSE(r.torn_tail);
    }
    prev_entries = std::max(prev_entries, r.entries.size());
  }
  EXPECT_EQ(prev_entries, 5u);
}

// Damage to a NON-final record — impossible from a crash, possible from
// an edited or bit-rotted file — is corruption, not a torn tail.
TEST(Journal, MidFileCorruptionIsMalformed) {
  const std::string src = make_populated("corrupt_src");
  std::string bytes;
  ASSERT_TRUE(atomic_io::read_file(src, &bytes));
  // Flip a payload byte of the FIRST record line (3rd line of the file).
  std::size_t line_start = 0;
  for (int skip = 0; skip < 2; ++skip) {
    line_start = bytes.find('\n', line_start) + 1;
  }
  const std::string dst = temp_path("corrupt_dst");
  std::string bad = bytes;
  bad[line_start + 12] ^= 0x20;
  ASSERT_TRUE(atomic_io::write_file_atomic(dst, bad).ok);
  const Outcome<JournalReplay> out = read_journal(dst);
  EXPECT_EQ(out.status(), Status::kMalformedInput);
  EXPECT_NE(out.message().find("corrupt record"), std::string::npos)
      << out.message();

  // A record whose CRC checks but whose seq overflows u64 cannot come
  // from a crash either — even as the final line — and must never wrap
  // around to a small, plausible seq.
  const std::string wrapped = temp_path("seq_overflow");
  std::remove(wrapped.c_str());
  ASSERT_TRUE(Journal::create(wrapped, header()).ok());
  std::string journal;
  ASSERT_TRUE(atomic_io::read_file(wrapped, &journal));
  journal += record_log::format_line(
      'R',
      "seq=18446744073709551617 buyer=0 phase=embedding crc=00000000 "
      "artifact=");
  ASSERT_TRUE(atomic_io::write_file_atomic(wrapped, journal).ok);
  const Outcome<JournalReplay> overflow = read_journal(wrapped);
  EXPECT_EQ(overflow.status(), Status::kMalformedInput);
  EXPECT_NE(overflow.message().find("corrupt record"), std::string::npos)
      << overflow.message();
}

// The same damage on the FINAL record is indistinguishable from a torn
// append and must be tolerated (replay stops before it).
TEST(Journal, ChecksumTamperOnFinalRecordIsTornTail) {
  const std::string src = make_populated("tamper_src");
  std::string bytes;
  ASSERT_TRUE(atomic_io::read_file(src, &bytes));
  const std::size_t last_line =
      bytes.rfind('\n', bytes.size() - 2) + 1;
  std::string bad = bytes;
  bad[last_line + 2] = bad[last_line + 2] == 'f' ? '0' : 'f';  // crc hex
  const std::string dst = temp_path("tamper_dst");
  ASSERT_TRUE(atomic_io::write_file_atomic(dst, bad).ok);
  const Outcome<JournalReplay> out = read_journal(dst);
  ASSERT_TRUE(out.ok()) << out.message();
  EXPECT_TRUE(out.value().torn_tail);
  EXPECT_EQ(out.value().entries.size(), 4u);
  EXPECT_EQ(out.value().valid_bytes, last_line);
}

TEST(Journal, SequenceRegressionIsMalformed) {
  const std::string src = make_populated("seqreg_src");
  std::string bytes;
  ASSERT_TRUE(atomic_io::read_file(src, &bytes));
  // Swap the last two (intact, checksummed) record lines: every line
  // still passes its checksum, but seq now regresses.
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const std::size_t nl = bytes.find('\n', pos);
    lines.push_back(bytes.substr(pos, nl - pos + 1));
    pos = nl + 1;
  }
  ASSERT_GE(lines.size(), 4u);
  std::swap(lines[lines.size() - 1], lines[lines.size() - 2]);
  std::string bad;
  for (const std::string& l : lines) bad += l;
  const std::string dst = temp_path("seqreg_dst");
  ASSERT_TRUE(atomic_io::write_file_atomic(dst, bad).ok);
  const Outcome<JournalReplay> out = read_journal(dst);
  EXPECT_EQ(out.status(), Status::kMalformedInput);
  EXPECT_NE(out.message().find("sequence regression"), std::string::npos)
      << out.message();
}

TEST(Journal, BadMagicIsMalformed) {
  const std::string dst = temp_path("badmagic");
  ASSERT_TRUE(
      atomic_io::write_file_atomic(dst, "not a journal\nsecond line\n")
          .ok);
  const Outcome<JournalReplay> out = read_journal(dst);
  EXPECT_EQ(out.status(), Status::kMalformedInput);
  EXPECT_NE(out.message().find("bad magic"), std::string::npos);
}

TEST(Journal, MissingFileIsMalformed) {
  const Outcome<JournalReplay> out =
      read_journal("/nonexistent/odcfp-no-such-journal");
  EXPECT_EQ(out.status(), Status::kMalformedInput);
}

// A crash between create() and header durability replays as a journal
// with no header; the batch layer starts the run from scratch.
TEST(Journal, HeaderlessFileReplaysEmpty) {
  const std::string dst = temp_path("headerless");
  ASSERT_TRUE(atomic_io::write_file_atomic(dst, "odcfp-journal 1\n").ok);
  const Outcome<JournalReplay> out = read_journal(dst);
  ASSERT_TRUE(out.ok()) << out.message();
  EXPECT_FALSE(out.value().has_header);
  EXPECT_TRUE(out.value().entries.empty());
}

// append_to truncates the torn tail, and appended records continue the
// sequence from the replay — exactly the resume flow.
TEST(Journal, AppendToTruncatesTornTailAndContinuesSeq) {
  const std::string path = make_populated("resume");
  std::string bytes;
  ASSERT_TRUE(atomic_io::read_file(path, &bytes));
  // Simulate a crash mid-append: half of a 6th record.
  ASSERT_TRUE(atomic_io::write_file_atomic(
                  path, bytes + "R 0123abcd seq=5 buy")
                  .ok);
  Outcome<JournalReplay> replay = read_journal(path);
  ASSERT_TRUE(replay.ok());
  ASSERT_TRUE(replay.value().torn_tail);
  Outcome<Journal> j = Journal::append_to(path, replay.value());
  ASSERT_TRUE(j.ok()) << j.message();
  ASSERT_TRUE(j.value().append(2, BuyerPhase::kEmbedding));
  j.value().close();

  const Outcome<JournalReplay> after = read_journal(path);
  ASSERT_TRUE(after.ok()) << after.message();
  EXPECT_FALSE(after.value().torn_tail);
  ASSERT_EQ(after.value().entries.size(), 6u);
  EXPECT_EQ(after.value().entries.back().seq, 5u);
  EXPECT_EQ(after.value().entries.back().buyer, 2u);
  EXPECT_EQ(after.value().entries.back().phase, BuyerPhase::kEmbedding);
}

// An injected fault before the write leaves no bytes behind: the append
// reports failure, the journal stays usable, and no sequence number is
// consumed or duplicated.
TEST(Journal, AppendFaultBeforeWriteLeavesJournalUsable) {
  const std::string path = temp_path("append_fault");
  std::remove(path.c_str());
  Outcome<Journal> j = Journal::create(path, header());
  ASSERT_TRUE(j.ok());
  {
    fault::FailNthIo inj(1, "journal.append");
    fault::ScopedInjector scoped(&inj);
    std::string error;
    EXPECT_FALSE(j.value().append(0, BuyerPhase::kEmbedding, "", 0,
                                  &error));
    EXPECT_NE(error.find("injected"), std::string::npos) << error;
  }
  EXPECT_TRUE(j.value().is_open());
  EXPECT_TRUE(j.value().append(0, BuyerPhase::kEmbedding));
  const Outcome<JournalReplay> out = read_journal(path);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().entries.size(), 1u);
  EXPECT_EQ(out.value().entries[0].seq, 0u);
}

// ENOSPC mid-append: the kernel accepted a PREFIX of the record before
// failing. The journal must roll the file back to its pre-append size —
// a partial line mid-file would poison every later replay — and stay
// appendable once space is freed.
TEST(Journal, DiskFullShortAppendRollsBackAndStaysAppendable) {
  const std::string path = temp_path("disk_full");
  std::remove(path.c_str());
  Outcome<Journal> j = Journal::create(path, header());
  ASSERT_TRUE(j.ok());
  ASSERT_TRUE(j.value().append(0, BuyerPhase::kEmbedding));
  std::string before;
  ASSERT_TRUE(atomic_io::read_file(path, &before));

  fault::FailNthDiskFull inj(1, "journal.append", /*count=*/1,
                             /*short_bytes=*/5);
  {
    fault::ScopedInjector scoped(&inj);
    std::string error;
    EXPECT_FALSE(
        j.value().append(1, BuyerPhase::kEmbedding, "", 0, &error));
    EXPECT_NE(error.find("disk full"), std::string::npos) << error;
  }
  EXPECT_EQ(inj.fired(), 1u);
  // Byte-identical rollback: the short-landed prefix is gone.
  std::string after;
  ASSERT_TRUE(atomic_io::read_file(path, &after));
  EXPECT_EQ(after, before);

  // Disk recovered: appends resume and replay is clean.
  EXPECT_TRUE(j.value().is_open());
  EXPECT_TRUE(j.value().append(1, BuyerPhase::kEmbedding));
  const Outcome<JournalReplay> out = read_journal(path);
  ASSERT_TRUE(out.ok()) << out.message();
  ASSERT_EQ(out.value().entries.size(), 2u);
  EXPECT_FALSE(out.value().torn_tail);
}

// Same fault, but the whole record landed short of its newline AND the
// rollback covers it — a sweep over short_bytes sizes exercises every
// truncation point including 0 (nothing landed).
TEST(Journal, DiskFullRollbackHoldsAtEveryTruncationPoint) {
  for (const std::size_t short_bytes : {std::size_t{0}, std::size_t{1},
                                        std::size_t{16},
                                        std::size_t{10'000}}) {
    const std::string path = temp_path("disk_full_sweep");
    std::remove(path.c_str());
    Outcome<Journal> j = Journal::create(path, header());
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(j.value().append(0, BuyerPhase::kEmbedding));
    std::string before;
    ASSERT_TRUE(atomic_io::read_file(path, &before));
    fault::FailNthDiskFull inj(1, "journal.append", 1, short_bytes);
    {
      fault::ScopedInjector scoped(&inj);
      EXPECT_FALSE(j.value().append(1, BuyerPhase::kCommitted,
                                    "out/e.blif", 0xabcd));
    }
    std::string after;
    ASSERT_TRUE(atomic_io::read_file(path, &after));
    EXPECT_EQ(after, before) << "short_bytes=" << short_bytes;
    const Outcome<JournalReplay> out = read_journal(path);
    ASSERT_TRUE(out.ok()) << out.message();
    EXPECT_FALSE(out.value().torn_tail) << "short_bytes=" << short_bytes;
  }
}

// A fault between write and fsync fails the append (durability unknown)
// but the line itself is intact on disk; the retried append must use a
// FRESH sequence number so replay stays strictly increasing.
TEST(Journal, FsyncFaultConsumesSeqSoRetryNeverDuplicates) {
  const std::string path = temp_path("fsync_fault");
  std::remove(path.c_str());
  Outcome<Journal> j = Journal::create(path, header());
  ASSERT_TRUE(j.ok());
  {
    fault::FailNthIo inj(1, "journal.fsync");
    fault::ScopedInjector scoped(&inj);
    EXPECT_FALSE(j.value().append(3, BuyerPhase::kEmbedding));
  }
  // The caller retries the same logical record.
  EXPECT_TRUE(j.value().append(3, BuyerPhase::kEmbedding));
  const Outcome<JournalReplay> out = read_journal(path);
  ASSERT_TRUE(out.ok()) << out.message();
  ASSERT_EQ(out.value().entries.size(), 2u);
  EXPECT_EQ(out.value().entries[0].seq, 0u);
  EXPECT_EQ(out.value().entries[1].seq, 1u);
  EXPECT_EQ(out.value().next_seq, 2u);
}

TEST(Journal, CreateFaultIsTypedError) {
  const std::string path = temp_path("create_fault");
  std::remove(path.c_str());
  fault::FailNthIo inj(1, "journal.create");
  fault::ScopedInjector scoped(&inj);
  const Outcome<Journal> j = Journal::create(path, header());
  EXPECT_EQ(j.status(), Status::kMalformedInput);
  EXPECT_NE(j.message().find("injected"), std::string::npos);
}

// An empty-but-existing journal cannot come from a crash — create()
// writes magic + header in a single write before returning — so it must
// be rejected with a diagnostic naming the condition, never silently
// treated as a fresh run (that would discard whatever the journal once
// recorded).
TEST(Journal, EmptyFileIsRejectedWithDistinctDiagnostic) {
  const std::string dst = temp_path("empty");
  ASSERT_TRUE(atomic_io::write_file_atomic(dst, "").ok);
  const Outcome<JournalReplay> out = read_journal(dst);
  EXPECT_EQ(out.status(), Status::kMalformedInput);
  EXPECT_NE(out.message().find("exists but is empty"), std::string::npos)
      << out.message();
  // Distinct from the mid-file corruption diagnostic.
  EXPECT_EQ(out.message().find("corrupt record"), std::string::npos);
}

// Heartbeats are a liveness sidecar: CRC-checked, but invisible to
// replay state — phase_of/committed/next_seq are exactly as without
// them, and they consume no sequence numbers.
TEST(Journal, HeartbeatsCountButNeverAffectReplayState) {
  const std::string path = temp_path("heartbeat");
  std::remove(path.c_str());
  Outcome<Journal> j = Journal::create(path, header());
  ASSERT_TRUE(j.ok());
  ASSERT_TRUE(j.value().append(0, BuyerPhase::kEmbedding));
  ASSERT_TRUE(j.value().heartbeat(1));
  ASSERT_TRUE(j.value().heartbeat(2));
  ASSERT_TRUE(j.value().append(0, BuyerPhase::kVerified));
  ASSERT_TRUE(j.value().heartbeat(3));
  const Outcome<JournalReplay> out = read_journal(path);
  ASSERT_TRUE(out.ok()) << out.message();
  const JournalReplay& r = out.value();
  EXPECT_EQ(r.heartbeats, 3u);
  EXPECT_EQ(r.last_heartbeat, 3u);
  ASSERT_EQ(r.entries.size(), 2u);
  EXPECT_EQ(r.next_seq, 2u);  // heartbeats consumed no seq
  EXPECT_EQ(r.phase_of(4)[0], BuyerPhase::kVerified);

  // append_to after heartbeats continues the record sequence unbroken.
  Outcome<Journal> resumed = Journal::append_to(path, r);
  ASSERT_TRUE(resumed.ok()) << resumed.message();
  ASSERT_TRUE(resumed.value().append(0, BuyerPhase::kCommitted, "a", 1));
  const Outcome<JournalReplay> after = read_journal(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().entries.back().seq, 2u);
}

// A torn FINAL heartbeat is tolerated like any torn tail; a damaged
// MID-FILE heartbeat is corruption like any damaged record.
TEST(Journal, HeartbeatDamageFollowsTornTailRules) {
  const std::string path = temp_path("heartbeat_torn");
  std::remove(path.c_str());
  {
    Outcome<Journal> j = Journal::create(path, header());
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(j.value().heartbeat(1));
  }
  std::string bytes;
  ASSERT_TRUE(atomic_io::read_file(path, &bytes));
  // Torn final heartbeat: chop mid-line.
  const std::string torn = temp_path("heartbeat_torn_dst");
  ASSERT_TRUE(
      atomic_io::write_file_atomic(torn, bytes.substr(0, bytes.size() - 3))
          .ok);
  Outcome<JournalReplay> out = read_journal(torn);
  ASSERT_TRUE(out.ok()) << out.message();
  EXPECT_TRUE(out.value().torn_tail);
  EXPECT_EQ(out.value().heartbeats, 0u);
  // Mid-file damaged heartbeat: flip a payload byte, then append an
  // intact line after it.
  std::string bad = bytes;
  const std::size_t hb_line = bad.rfind("B ");
  bad[hb_line + 12] ^= 0x1;
  bad += "B deadbeef pid=1 beat=2\n";  // bad crc too, but non-final rule
                                       // fires on the first damaged line
  const std::string corrupt = temp_path("heartbeat_corrupt_dst");
  ASSERT_TRUE(atomic_io::write_file_atomic(corrupt, bad).ok);
  out = read_journal(corrupt);
  EXPECT_EQ(out.status(), Status::kMalformedInput);
  EXPECT_NE(out.message().find("corrupt heartbeat"), std::string::npos)
      << out.message();
}

// append_to re-validates the on-disk prologue before appending: a file
// swapped or tampered with between replay and open — possible in the
// multi-process world — must be rejected, not extended.
TEST(Journal, AppendToRejectsTamperedHeader) {
  const std::string path = make_populated("tamper_header");
  Outcome<JournalReplay> replay = read_journal(path);
  ASSERT_TRUE(replay.ok());
  // Corrupt one byte of the header line ON DISK after the replay.
  std::string bytes;
  ASSERT_TRUE(atomic_io::read_file(path, &bytes));
  const std::size_t header_start = bytes.find('\n') + 1;
  bytes[header_start + 12] ^= 0x10;
  ASSERT_TRUE(atomic_io::write_file_atomic(path, bytes).ok);
  const Outcome<Journal> j = Journal::append_to(path, replay.value());
  EXPECT_EQ(j.status(), Status::kMalformedInput);
  EXPECT_NE(j.message().find("header CRC re-validation failed"),
            std::string::npos)
      << j.message();
}

TEST(Journal, AppendToRejectsSwappedMagic) {
  const std::string path = make_populated("swap_magic");
  Outcome<JournalReplay> replay = read_journal(path);
  ASSERT_TRUE(replay.ok());
  std::string bytes;
  ASSERT_TRUE(atomic_io::read_file(path, &bytes));
  bytes[0] = 'x';  // no longer "odcfp-journal 1"
  ASSERT_TRUE(atomic_io::write_file_atomic(path, bytes).ok);
  const Outcome<Journal> j = Journal::append_to(path, replay.value());
  EXPECT_EQ(j.status(), Status::kMalformedInput);
  EXPECT_NE(j.message().find("magic line no longer valid"),
            std::string::npos)
      << j.message();
}

}  // namespace
}  // namespace odcfp
