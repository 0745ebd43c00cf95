// Batch edition fan-out: the IP-vendor flow at distribution scale.
//
// ip_vendor_flow.cpp stamps buyer copies one at a time; this example uses
// the crash-safe runner instead — one call stamps every buyer of a
// Codebook across a thread pool as the one shard of a run dir, records
// each buyer's lifecycle in a write-ahead journal, publishes every
// edition atomically (temp+rename), verifies the batch against the
// golden netlist, and proves that a leaked copy still traces back to its
// buyer. The results are identical for any pool size; the pool only
// changes how long the batch takes.
//
// Kill this process at ANY instant (Ctrl-C, SIGKILL, OOM) and rerun the
// same command: buyers whose editions are already durable are skipped,
// the rest are stamped bit-identically to an uninterrupted run.
// `odcfp_status <outdir>` reads the run dir at any point.
//
//   ./buyer_batch [circuit] [buyers] [threads] [outdir]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/parallel.hpp"
#include "dist/runner.hpp"

using namespace odcfp;

int main(int argc, char** argv) {
  const std::string circuit = argc > 1 ? argv[1] : "c880";
  const std::size_t buyers =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 8;
  const int threads = argc > 3 ? std::atoi(argv[3]) : 0;  // 0 = all cores
  const std::string outdir = argc > 4 ? argv[4] : "buyer_batch_out";

  // The order, as a run dir's spec: the run rebuilds the golden netlist,
  // its locations and the codebook from it.
  dist::RunSpec spec;
  spec.circuit = circuit;
  spec.num_buyers = buyers;
  spec.codebook_seed = 2026;
  spec.batch_seed = 42;
  // The 10% delay constraint keeps editions that exceed it out of the
  // run (journaled failed); a deadline (ShardOptions::budget) would make
  // the batch degrade gracefully instead of hanging (skipped editions
  // come back Status::kExhausted and resume later).
  spec.max_delay_overhead = 0.10;
  spec.label = circuit;
  const dist::RunInputs inputs(spec);
  const Netlist& golden = inputs.golden;
  const auto& locations = inputs.locations;
  // A materialized spec's codebook is a Codebook.
  const Codebook& book = dynamic_cast<const Codebook&>(*inputs.book);
  std::printf("%s: %zu live gates, %zu locations, %.1f capacity bits\n",
              circuit.c_str(), golden.num_live_gates(), locations.size(),
              total_capacity_bits(locations));
  const Outcome<bool> pinned = dist::pin_run_spec(outdir, spec);
  if (!pinned.ok()) {
    std::printf("run dir rejected: %s\n", pinned.message().c_str());
    return 1;
  }

  // Stamp every buyer's edition through the journaled runner.
  ThreadPool pool(threads);
  dist::ShardOptions options;
  options.pool = &pool;
  const dist::ResumableBatchResult run =
      dist::run_shard(outdir, spec, inputs, options);
  if (run.status == Status::kMalformedInput) {
    std::printf("journal rejected: %s\n", run.message.c_str());
    return 1;
  }
  const BatchResult& batch = run.batch;

  std::printf("\nstamped %zu editions (%d threads), %zu recovered from "
              "journal, %zu within the delay constraint\n\n",
              batch.editions.size(), pool.num_threads(), run.recovered,
              batch.num_ok());
  std::printf("%5s %8s %8s %8s %10s\n", "buyer", "area+", "delay+",
              "power+", "status");
  for (const BuyerEdition& e : batch.editions) {
    if (e.netlist.num_gates() == 0 && e.status == Status::kOk) {
      std::printf("%5zu %8s %8s %8s %10s\n", e.buyer, "-", "-", "-",
                  "recovered");
      continue;
    }
    std::printf("%5zu %7.2f%% %7.2f%% %7.2f%% %10s\n", e.buyer,
                100 * e.overheads.area_ratio, 100 * e.overheads.delay_ratio,
                100 * e.overheads.power_ratio, to_string(e.status));
  }

  // Verify the freshly-stamped editions against the golden netlist in
  // one fan-out (recovered editions live on disk; re-read them if their
  // in-memory netlist is needed).
  BatchCecOptions cec;
  cec.pool = &pool;
  const auto verdicts = batch_verify_equivalence(golden, batch.editions, cec);
  std::size_t equivalent = 0, checked = 0;
  for (std::size_t b = 0; b < verdicts.size(); ++b) {
    if (batch.editions[b].netlist.num_gates() == 0) continue;
    ++checked;
    equivalent += verdicts[b].ok() && verdicts[b].value().equivalent();
  }
  std::printf("\nCEC: %zu/%zu freshly-stamped editions proven equivalent "
              "to golden\n",
              equivalent, checked);

  // A "leaked" copy still traces back to its buyer (use a fresh edition;
  // recovered ones would first be re-read from their artifact).
  const BuyerEdition* leaked = nullptr;
  for (auto it = batch.editions.rbegin(); it != batch.editions.rend();
       ++it) {
    if (it->netlist.num_gates() != 0) {
      leaked = &*it;
      break;
    }
  }
  int rc = 0;
  if (leaked != nullptr) {
    const FingerprintCode recovered_code =
        extract_code(leaked->netlist, golden, locations);
    const TraceResult tr = trace_buyer(book, recovered_code);
    std::printf("leak of buyer %zu's edition traces to buyer %zu "
                "(score %.2f)\n",
                leaked->buyer, tr.ranked[0], tr.scores[0]);
    rc = tr.ranked[0] == leaked->buyer ? 0 : 1;
  } else {
    std::printf("every edition recovered from the journal; artifacts "
                "already verified by checksum\n");
  }

  std::printf("\njournal: %s\n", run.journal_path.c_str());
  std::printf("artifacts: %s/edition_<buyer>.blif\n",
              dist::editions_dir(outdir).c_str());
  std::printf("kill this process at any point and rerun the same command "
              "to resume.\n");
  return rc;
}
