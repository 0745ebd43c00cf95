// Atomic artifact writes: temp file + fsync + rename.
//
// Every artifact the pipeline produces — fingerprinted BLIF/Verilog
// editions, BENCH_<name>.json reports, trace timelines — goes through
// write_file_atomic so that a reader (or a resumed run) can never observe
// a partially-written file at its final path. The protocol is the
// classic one: the bytes are written to `<path>.tmp.<pid>.<seq>` in the
// same directory, fsync'd, and rename(2)'d over the final path; POSIX
// rename is atomic, so the final path either holds the complete old
// content or the complete new content at every instant, including across
// a SIGKILL at any point of the sequence. A crash leaves at most a stale
// temp file, which remove_stale_temps() sweeps on the next run.
//
// Failures (ENOSPC, EIO, injected faults from the chaos harness) come
// back as a WriteResult carrying a step-naming diagnostic instead of an
// exception, so serving paths can classify them transient and hand them
// to retry_with_backoff (src/common/retry.hpp). The hazardous steps are
// marked with ODCFP_FAULT_POINT sites — atomic_io.open, atomic_io.write
// (once per 64 KiB chunk, so an injected fault produces a genuinely
// partial temp file), atomic_io.fsync, atomic_io.rename — which the
// fault-injection and crash-recovery suites drive deterministically.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace odcfp::atomic_io {

struct WriteOptions {
  /// fsync the temp file before the rename (durability of the bytes).
  bool fsync_file = true;
  /// fsync the parent directory after the rename (durability of the
  /// name). Best-effort: some filesystems reject directory fsync; a
  /// failure here never fails the write.
  bool fsync_dir = true;
};

struct WriteResult {
  bool ok = false;
  /// On failure: which step failed, on what path, and the errno text (or
  /// the injected-fault message). Empty on success.
  std::string error;
};

/// Atomically replaces `path` with `data`. On failure the temp file is
/// unlinked and the final path is untouched (old content, or absent).
WriteResult write_file_atomic(const std::string& path,
                              std::string_view data,
                              const WriteOptions& options = {});

/// Creates `path` holding exactly `prologue` (replacing any old file) and
/// returns a write-only O_APPEND descriptor on it, or -1 with `*error`
/// naming the failed step. The prologue is written and fsync'd under a
/// temp name and renamed into place, so a crash at any instant leaves
/// either no file at `path` (plus a stale temp) or the whole prologue:
/// append-only logs built on this can treat an empty file as damage,
/// never as a crash before the first write.
int create_with_prologue(const std::string& path, std::string_view prologue,
                         std::string* error);

/// Unlinks leftover `*.tmp.*` files in `dir` from crashed writers.
/// Returns the number removed; an unopenable directory removes nothing.
///
/// Concurrent-writer safety: temp names embed the writer's pid
/// (`<path>.tmp.<pid>.<seq>`), and a temp whose owner process is still
/// alive is SKIPPED — in a sharded run several worker processes publish
/// into one artifact directory, and each sweeps it on entry, so the
/// sweep must not delete a sibling's in-flight temp. The liveness check
/// is guarded by age: a temp older than `max_live_age_seconds` is
/// removed even if a process with that pid exists (pid reuse — the
/// original writer is long gone, the pid now names someone else). Temps
/// whose pid field does not parse are always removed.
std::size_t remove_stale_temps(const std::string& dir,
                               long max_live_age_seconds = 3600);

/// mkdir -p. Returns false (with errno intact) only when a component
/// could not be created; an already-existing directory is success.
bool make_dirs(const std::string& dir);

/// True when `path` names an existing file-system entry.
bool exists(const std::string& path);

/// Reads a whole file into `out`. False on any I/O failure.
bool read_file(const std::string& path, std::string* out);

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `data`. Shared by the
/// write-ahead journal's record checksums and the per-artifact payload
/// checksums recorded at commit time.
std::uint32_t crc32(std::string_view data);

/// Streaming form of crc32: feeding a byte stream chunk-by-chunk yields
/// exactly crc32(concatenation). Lets the batch layer digest a streaming
/// codebook without materializing every codeword into one string.
class Crc32 {
 public:
  void update(std::string_view data);
  std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

}  // namespace odcfp::atomic_io
