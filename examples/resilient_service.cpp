// Crash-safe fingerprint distribution: kill it, resume it, same bytes.
//
// A distribution service stamping hundreds of buyer editions WILL be
// interrupted — deploys, OOM kills, disk hiccups. This example walks the
// recovery story end to end with a deterministic injected disk fault:
//
//   1. a batch run is interrupted: the disk "fails" persistently while
//      the first buyers' artifacts are being published, so their retries
//      exhaust and the run returns Status::kExhausted with a journal
//      that knows exactly which buyers are durable;
//   2. the write-ahead journal is replayed and summarized — this is what
//      an operator (or the resumed process) sees after the crash;
//   3. the same call runs again with a healthy disk: committed buyers
//      are skipped (checksum-verified), the rest are stamped, and every
//      artifact is byte-identical to an uninterrupted reference run.
//
// `outdir` is a run dir (shard_0.journal, editions/, and run.spec, pinned
// before the outage), so `odcfp_report outdir` reads it like any sharded
// run.
//
//   ./resilient_service [circuit] [buyers] [outdir]
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/atomic_io.hpp"
#include "common/fault.hpp"
#include "common/journal.hpp"
#include "common/record_log.hpp"
#include "common/retry.hpp"
#include "dist/runner.hpp"

using namespace odcfp;

int main(int argc, char** argv) {
  const std::string circuit = argc > 1 ? argv[1] : "c432";
  std::uint64_t buyers = 6;
  // Numbers are parsed whole, before the run dir is touched.
  if (argc > 2 && !record_log::parse_u64(argv[2], &buyers)) {
    std::fprintf(stderr,
                 "usage: resilient_service [circuit] [buyers] [outdir]\n");
    return 2;
  }
  const std::string outdir = argc > 3 ? argv[3] : "resilient_service_out";

  dist::RunSpec spec;
  spec.circuit = circuit;
  spec.num_buyers = buyers;
  spec.codebook_seed = 2026;
  spec.batch_seed = 42;
  spec.max_delay_overhead = 0;  // keep the status story about I/O
  spec.label = circuit;

  // Start from scratch so the interruption story replays every run.
  const auto reset_run_dir = [&](const std::string& dir) {
    std::remove(dist::run_spec_path(dir).c_str());
    std::remove(dist::shard_journal_path(dir, 0).c_str());
    for (std::size_t b = 0; b < buyers; ++b) {
      std::remove((dist::editions_dir(dir) + "/edition_" +
                   std::to_string(b) + ".blif")
                      .c_str());
    }
  };
  reset_run_dir(outdir);
  // Pinned before the outage below, so every failing atomic_io.write is
  // an edition publish.
  const Outcome<bool> pinned = dist::pin_run_spec(outdir, spec);
  if (!pinned.ok()) {
    std::printf("run dir rejected: %s\n", pinned.message().c_str());
    return 1;
  }
  const std::string journal_path = dist::shard_journal_path(outdir, 0);

  // ---- 1. the interrupted run -------------------------------------
  // FailNthIo throws at the atomic_io.write fault point for the first
  // 2 * max_attempts hits: with a serial pool the first two buyers see
  // every publish attempt fail, exhaust their retries, and stay pending.
  // A real crash is harsher (SIGKILL mid-write — tests/crash_recovery_
  // test.cpp does exactly that); the journal contract is the same.
  std::printf("[1] run with a failing disk\n");
  {
    fault::FailNthIo disk_down(
        1, "atomic_io.write",
        static_cast<std::uint64_t>(2 * RetryPolicy{}.max_attempts));
    fault::ScopedInjector guard(&disk_down);
    const dist::ResumableBatchResult run =
        dist::run_shard(outdir, spec, {});
    std::printf("    status=%s committed=%zu/%zu retries=%zu\n",
                to_string(run.status), run.batch.num_ok(), buyers,
                run.retries);
    if (!run.message.empty()) std::printf("    %s\n", run.message.c_str());
  }

  // ---- 2. what the journal knows after the interruption -----------
  std::printf("\n[2] journal replay: %s\n", journal_path.c_str());
  const Outcome<JournalReplay> replay = read_journal(journal_path);
  if (!replay.ok()) {
    std::printf("    replay failed: %s\n", replay.message().c_str());
    return 1;
  }
  const std::vector<BuyerPhase> phases =
      replay.value().phase_of(buyers);
  std::printf("    header: seed=%llu buyers=%llu label=%s\n",
              static_cast<unsigned long long>(replay.value().header.seed),
              static_cast<unsigned long long>(
                  replay.value().header.num_buyers),
              replay.value().header.label.c_str());
  std::printf("    %zu records, torn tail: %s\n",
              replay.value().entries.size(),
              replay.value().torn_tail ? "yes (will be truncated)" : "no");
  for (std::size_t b = 0; b < buyers; ++b) {
    std::printf("    buyer %zu: %s\n", b, to_string(phases[b]));
  }

  // ---- 3. resume with a healthy disk ------------------------------
  std::printf("\n[3] resume the same command\n");
  const dist::ResumableBatchResult resumed =
      dist::run_shard(outdir, spec, {});
  std::printf("    status=%s committed=%zu/%zu recovered=%zu\n",
              to_string(resumed.status), resumed.batch.num_ok(), buyers,
              resumed.recovered);
  if (resumed.status != Status::kOk) {
    std::printf("    resume did not complete: %s\n",
                resumed.message.c_str());
    return 1;
  }

  // Byte-identity: a reference run that was never interrupted produces
  // the same artifacts bit for bit (seeds derive from the spec the
  // journal header pins, publishes are atomic, commits are idempotent).
  const std::string refdir = outdir + "/reference";
  reset_run_dir(refdir);
  const dist::ResumableBatchResult reference =
      dist::run_shard(refdir, spec, {});
  std::size_t identical = 0;
  for (std::size_t b = 0; b < buyers; ++b) {
    std::string got, want;
    if (atomic_io::read_file(resumed.artifacts[b], &got) &&
        atomic_io::read_file(reference.artifacts[b], &want) &&
        got == want) {
      ++identical;
    }
  }
  std::printf("    %zu/%zu artifacts byte-identical to an uninterrupted "
              "run\n",
              identical, buyers);

  std::printf("\njournal: %s\n", journal_path.c_str());
  std::printf("artifacts: %s/edition_<buyer>.blif\n",
              dist::editions_dir(outdir).c_str());
  return identical == buyers ? 0 : 1;
}
