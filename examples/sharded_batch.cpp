// Sharded multi-process batch: the buyer_batch flow, distributed.
//
// A supervisor splits the buyers into contiguous shards, spawns one
// odcfp_worker process per shard, and hands out shards via a
// checksummed lease journal. Workers heartbeat into per-shard
// write-ahead journals; a worker that crashes or stops making durable
// progress is SIGKILLed, its lease revoked, and its shard re-granted
// to a fresh worker that resumes mid-range. When all shards finish,
// the shard results merge into <outdir>/merged/ — and the merged bytes
// are identical for any shard count, any kill schedule, and any
// uninterrupted single-process run of the same spec.
//
// Kill THIS process at any instant and rerun the same command: the
// lease journal is the supervisor's WAL, the workers die with it
// (PDEATHSIG), and the next incarnation replays, revokes, re-grants,
// and converges.
//
//   ./sharded_batch [circuit] [buyers] [shards] [outdir]
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/record_log.hpp"
#include "dist/shard.hpp"
#include "dist/supervisor.hpp"

using namespace odcfp;

int main(int argc, char** argv) {
  dist::RunSpec spec;
  spec.circuit = argc > 1 ? argv[1] : "c880";
  spec.num_buyers = 8;
  std::uint64_t shards = 4;
  // Numbers are parsed whole, before the run dir is touched.
  if ((argc > 2 && !record_log::parse_u64(argv[2], &spec.num_buyers)) ||
      (argc > 3 && !record_log::parse_u64(argv[3], &shards))) {
    std::fprintf(stderr,
                 "usage: sharded_batch [circuit] [buyers] [shards] "
                 "[outdir]\n");
    return 2;
  }
  spec.codebook_seed = 2026;
  spec.batch_seed = 7;
  spec.max_delay_overhead = 0.10;
  spec.label = "sharded batch example";

  dist::DistOptions options;
  options.run_dir = argc > 4 ? argv[4] : "sharded_batch_out";
  options.worker_binary = ODCFP_WORKER_BIN;
  options.num_shards = shards;
  options.worker_threads = 1;

  std::printf("%s: %llu buyers across %zu shard(s) in %s\n",
              spec.circuit.c_str(),
              static_cast<unsigned long long>(spec.num_buyers), shards,
              options.run_dir.c_str());

  const dist::DistResult result = dist::run_supervised_batch(spec, options);
  std::printf(
      "status=%s shards=%zu/%zu spawned=%zu killed=%zu regrants=%zu "
      "committed=%zu\n",
      to_string(result.status), result.shards_done, result.shards,
      result.workers_spawned, result.workers_killed, result.regrants,
      result.buyers_committed);
  if (result.status != Status::kOk) {
    std::printf("  %s\n  (rerun the same command to resume)\n",
                result.message.c_str());
    return 1;
  }
  for (const std::string& out : result.merged_outputs) {
    std::printf("  merged: %s\n", out.c_str());
  }
  std::printf("  editions: %zu under %s\n", result.artifacts.size(),
              dist::editions_dir(options.run_dir).c_str());
  return 0;
}
