// Atomic artifact writes: publish protocol, failure cleanup, stale-temp
// sweeping, and the shared CRC-32.
#include "common/atomic_io.hpp"

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>
#include <utime.h>

#include <cstdio>
#include <ctime>
#include <string>

#include "common/fault.hpp"

namespace odcfp {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "atomic_io_test_" + name;
}

TEST(AtomicIo, WriteReadRoundTrip) {
  const std::string path = temp_path("roundtrip");
  const std::string data("line one\nline two\n\0embedded", 27);
  ASSERT_TRUE(atomic_io::write_file_atomic(path, data).ok);
  std::string back;
  ASSERT_TRUE(atomic_io::read_file(path, &back));
  EXPECT_EQ(back, data);
  EXPECT_TRUE(atomic_io::exists(path));
}

TEST(AtomicIo, OverwriteReplacesWholeContent) {
  const std::string path = temp_path("overwrite");
  ASSERT_TRUE(atomic_io::write_file_atomic(path, "a long first version")
                  .ok);
  ASSERT_TRUE(atomic_io::write_file_atomic(path, "v2").ok);
  std::string back;
  ASSERT_TRUE(atomic_io::read_file(path, &back));
  EXPECT_EQ(back, "v2");
}

TEST(AtomicIo, LargeWriteSpansChunks) {
  // > 64 KiB so the chunked write loop takes several iterations.
  const std::string path = temp_path("large");
  std::string data;
  for (int i = 0; i < 5000; ++i) {
    data += "chunk " + std::to_string(i) + " of the large payload\n";
  }
  ASSERT_GT(data.size(), std::size_t{1} << 16);
  ASSERT_TRUE(atomic_io::write_file_atomic(path, data).ok);
  std::string back;
  ASSERT_TRUE(atomic_io::read_file(path, &back));
  EXPECT_EQ(back, data);
}

TEST(AtomicIo, MakeDirsIsRecursiveAndIdempotent) {
  const std::string dir = temp_path("dirs/a/b/c");
  EXPECT_TRUE(atomic_io::make_dirs(dir));
  EXPECT_TRUE(atomic_io::make_dirs(dir));  // already exists: success
  ASSERT_TRUE(atomic_io::write_file_atomic(dir + "/f", "x").ok);
  EXPECT_TRUE(atomic_io::exists(dir + "/f"));
}

TEST(AtomicIo, UnwritableDirectoryFailsWithDiagnostic) {
  const atomic_io::WriteResult r = atomic_io::write_file_atomic(
      "/nonexistent-odcfp-dir/file", "data");
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
}

TEST(AtomicIo, ReadMissingFileFails) {
  std::string out = "sentinel";
  EXPECT_FALSE(atomic_io::read_file(temp_path("missing-none"), &out));
}

/// Pid of a process that provably no longer exists: fork a child that
/// exits immediately and reap it.
pid_t dead_pid() {
  const pid_t pid = ::fork();
  if (pid == 0) ::_exit(0);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return pid;
}

TEST(AtomicIo, RemoveStaleTempsSweepsOnlyTemps) {
  const std::string dir = temp_path("sweep");
  ASSERT_TRUE(atomic_io::make_dirs(dir));
  ASSERT_TRUE(
      atomic_io::write_file_atomic(dir + "/keep.blif", "keep").ok);
  // Simulated crash debris: temp names as a DEAD writer left them (a
  // reaped child's pid, so the liveness check cannot be fooled by an
  // unrelated process that happens to wear a hardcoded pid).
  const std::string dead = std::to_string(dead_pid());
  ASSERT_TRUE(atomic_io::write_file_atomic(
                  dir + "/a.blif.tmp." + dead + ".7", "junk")
                  .ok);
  ASSERT_TRUE(atomic_io::write_file_atomic(
                  dir + "/b.json.tmp." + dead + ".0", "junk")
                  .ok);
  // A temp whose pid field does not parse is always debris.
  ASSERT_TRUE(
      atomic_io::write_file_atomic(dir + "/c.blif.tmp.garbage", "junk")
          .ok);
  EXPECT_EQ(atomic_io::remove_stale_temps(dir), 3u);
  EXPECT_TRUE(atomic_io::exists(dir + "/keep.blif"));
  EXPECT_FALSE(
      atomic_io::exists(dir + "/a.blif.tmp." + dead + ".7"));
  EXPECT_EQ(atomic_io::remove_stale_temps(dir), 0u);
  EXPECT_EQ(atomic_io::remove_stale_temps(dir + "/no-such-subdir"), 0u);
}

// A temp owned by a LIVE process is mid-publish, not debris: in a
// sharded run several workers publish into one artifact directory and
// each sweeps it on entry, so the sweep must never delete a sibling's
// in-flight temp.
TEST(AtomicIo, RemoveStaleTempsSkipsLiveOwners) {
  const std::string dir = temp_path("sweep_live");
  ASSERT_TRUE(atomic_io::make_dirs(dir));
  const std::string mine = std::to_string(::getpid());
  const std::string live_temp = dir + "/e.blif.tmp." + mine + ".3";
  ASSERT_TRUE(atomic_io::write_file_atomic(live_temp, "in flight").ok);
  EXPECT_EQ(atomic_io::remove_stale_temps(dir), 0u);
  EXPECT_TRUE(atomic_io::exists(live_temp));
  // The age guard breaks pid-reuse ties: a temp older than the cap is
  // removed even though a process with that pid exists.
  struct utimbuf ancient;
  ancient.actime = ancient.modtime = std::time(nullptr) - 7200;
  ASSERT_EQ(::utime(live_temp.c_str(), &ancient), 0);
  EXPECT_EQ(atomic_io::remove_stale_temps(dir, /*max_live_age_seconds=*/
                                          3600),
            1u);
  EXPECT_FALSE(atomic_io::exists(live_temp));
}

TEST(AtomicIo, CreateWithPrologueNeverExposesAPartialLog) {
  // Append-only logs start here: the name must appear holding the whole
  // prologue (an empty log is treated as damage on replay), appends land
  // after it, and a failed create leaves neither the log nor a temp.
  const std::string dir = temp_path("prologue");
  ASSERT_TRUE(atomic_io::make_dirs(dir));
  const std::string path = dir + "/log";
  ASSERT_TRUE(atomic_io::write_file_atomic(path, "stale old log\n").ok);
  std::string error;
  const int fd = atomic_io::create_with_prologue(path, "MAGIC\n", &error);
  ASSERT_GE(fd, 0) << error;
  std::string back;
  ASSERT_TRUE(atomic_io::read_file(path, &back));
  EXPECT_EQ(back, "MAGIC\n");
  ASSERT_EQ(::write(fd, "r1\n", 3), 3);
  ::close(fd);
  ASSERT_TRUE(atomic_io::read_file(path, &back));
  EXPECT_EQ(back, "MAGIC\nr1\n");

  // A directory at the log's path makes the rename fail.
  const std::string blocked = dir + "/blocked";
  ASSERT_TRUE(atomic_io::make_dirs(blocked));
  EXPECT_LT(atomic_io::create_with_prologue(blocked, "MAGIC\n", &error), 0);
  EXPECT_NE(error.find("rename"), std::string::npos) << error;
  const std::string my_temp = "blocked.tmp." + std::to_string(::getpid());
  std::size_t temps = 0;
  DIR* d = ::opendir(dir.c_str());
  ASSERT_NE(d, nullptr);
  while (const dirent* e = ::readdir(d)) {
    if (std::string(e->d_name).rfind(my_temp, 0) == 0) ++temps;
  }
  ::closedir(d);
  EXPECT_EQ(temps, 0u);
}

TEST(AtomicIo, Crc32KnownVectors) {
  // IEEE 802.3 reference values.
  EXPECT_EQ(atomic_io::crc32(""), 0x00000000u);
  EXPECT_EQ(atomic_io::crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(atomic_io::crc32("The quick brown fox jumps over the lazy "
                             "dog"),
            0x414fa339u);
}

// ---- injected-fault behavior: failure must never publish ----

TEST(AtomicIo, FaultAtEveryStepLeavesFinalPathUntouched) {
  const std::string dir = temp_path("fault_steps");
  ASSERT_TRUE(atomic_io::make_dirs(dir));
  const std::string path = dir + "/artifact.blif";
  ASSERT_TRUE(atomic_io::write_file_atomic(path, "old content").ok);
  for (const char* site : {"atomic_io.open", "atomic_io.write",
                           "atomic_io.fsync", "atomic_io.rename"}) {
    fault::FailNthIo inj(1, site);
    fault::ScopedInjector scoped(&inj);
    const atomic_io::WriteResult r =
        atomic_io::write_file_atomic(path, "new content");
    EXPECT_FALSE(r.ok) << site;
    EXPECT_NE(r.error.find("injected"), std::string::npos)
        << site << ": " << r.error;
    std::string back;
    ASSERT_TRUE(atomic_io::read_file(path, &back)) << site;
    EXPECT_EQ(back, "old content") << site;
    // The failed writer cleaned up its own temp.
    EXPECT_EQ(atomic_io::remove_stale_temps(dir), 0u) << site;
  }
  // With the injector gone the same write succeeds.
  ASSERT_TRUE(atomic_io::write_file_atomic(path, "new content").ok);
  std::string back;
  ASSERT_TRUE(atomic_io::read_file(path, &back));
  EXPECT_EQ(back, "new content");
}

// ---- ENOSPC: the disk filled mid-write and some bytes LANDED ----

TEST(AtomicIo, DiskFullShortWriteRejectsAndRecovers) {
  const std::string dir = temp_path("disk_full");
  ASSERT_TRUE(atomic_io::make_dirs(dir));
  const std::string path = dir + "/artifact.blif";
  ASSERT_TRUE(atomic_io::write_file_atomic(path, "old content").ok);
  fault::FailNthDiskFull inj(1, "atomic_io.write", /*count=*/1,
                             /*short_bytes=*/7);
  {
    fault::ScopedInjector scoped(&inj);
    const atomic_io::WriteResult r = atomic_io::write_file_atomic(
        path, "replacement far longer than seven bytes");
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("disk full"), std::string::npos) << r.error;
  }
  EXPECT_EQ(inj.fired(), 1u);
  // The genuinely-truncated temp was rejected, never published: the
  // final path still holds the previous content and no temp debris
  // survives for a resumed run to trip over.
  std::string back;
  ASSERT_TRUE(atomic_io::read_file(path, &back));
  EXPECT_EQ(back, "old content");
  EXPECT_EQ(atomic_io::remove_stale_temps(dir), 0u);
  // Space was freed (the injector only fires once): recovery is a plain
  // retry, no special casing.
  ASSERT_TRUE(
      atomic_io::write_file_atomic(path, "post-recovery content").ok);
  ASSERT_TRUE(atomic_io::read_file(path, &back));
  EXPECT_EQ(back, "post-recovery content");
}

TEST(AtomicIo, DiskFullMidChunkNeverPublishesThePrefix) {
  const std::string dir = temp_path("disk_full_chunks");
  ASSERT_TRUE(atomic_io::make_dirs(dir));
  const std::string path = dir + "/big.json";
  const std::string data(std::size_t{3} << 16, 'x');  // 3 chunks
  // The SECOND chunk lands short: a real partial temp existed on disk.
  fault::FailNthDiskFull inj(2, "atomic_io.write", /*count=*/1,
                             /*short_bytes=*/4096);
  {
    fault::ScopedInjector scoped(&inj);
    EXPECT_FALSE(atomic_io::write_file_atomic(path, data).ok);
  }
  EXPECT_EQ(inj.fired(), 1u);
  EXPECT_FALSE(atomic_io::exists(path));
  EXPECT_EQ(atomic_io::remove_stale_temps(dir), 0u);
}

TEST(AtomicIo, MidWriteFaultOnLargePayloadStillCleansUp) {
  const std::string dir = temp_path("fault_large");
  ASSERT_TRUE(atomic_io::make_dirs(dir));
  const std::string path = dir + "/big.json";
  std::string data(std::size_t{3} << 16, 'x');  // 3 chunks
  // Fail the SECOND chunk write: a genuinely partial temp existed.
  fault::FailNthIo inj(2, "atomic_io.write");
  {
    fault::ScopedInjector scoped(&inj);
    EXPECT_FALSE(atomic_io::write_file_atomic(path, data).ok);
  }
  EXPECT_TRUE(inj.fired());
  EXPECT_FALSE(atomic_io::exists(path));
  EXPECT_EQ(atomic_io::remove_stale_temps(dir), 0u);
}

}  // namespace
}  // namespace odcfp
