// Budgeted serving: fingerprinting as an interactive service.
//
// A fingerprint server answering IP-vendor requests cannot afford an
// unbounded heuristic run or SAT proof per request. This example drives
// the whole request flow — parse untrusted BLIF bytes, reduce the
// fingerprint under a delay constraint, verify the result — entirely
// through the budgeted APIs, showing how each layer degrades when its
// wall-clock deadline dies and how the Status taxonomy reports it.
//
// The server side of the story is the structured log: run with
// ODCFP_LOG=server.jsonl to capture one JSONL record per request with
// the outcome, the bits kept, and — on exhaustion — the telemetry span
// the budget died in, the same join key the trace timeline and the
// telemetry tree use.
#include <cstdio>
#include <string>

#include "benchgen/benchmarks.hpp"
#include "common/atomic_io.hpp"
#include "common/log.hpp"
#include "equiv/cec.hpp"
#include "fingerprint/heuristics.hpp"
#include "io/blif.hpp"
#include "power/power.hpp"
#include "timing/sta.hpp"

using namespace odcfp;

int main() {
  // ---- request admission: untrusted bytes become a typed outcome ----
  const Outcome<SopNetwork> rejected = try_read_blif_string(
      ".model broken\n.inputs a b\n.outputs f\n.names b a\n1 1\n.end\n");
  std::printf("malformed request -> %s: %s\n\n",
              to_string(rejected.status()), rejected.message().c_str());
  log::info("service.request.rejected")
      .field("status", to_string(rejected.status()))
      .field("reason", rejected.message());

  const Netlist golden = make_benchmark("c880");
  const StaticTimingAnalyzer sta;
  const PowerAnalyzer power;
  const Baseline base = Baseline::measure(golden, sta, power);
  const auto locations = find_locations(golden);
  std::printf("serving c880-class unit: %zu gates, %zu locations\n\n",
              golden.num_live_gates(), locations.size());

  // ---- the same reduction request under shrinking deadlines ----
  std::printf("%9s | %9s | %10s | %8s\n", "deadline", "status",
              "bits kept", "delay OH");
  std::printf("--------------------------------------------\n");
  for (const std::int64_t ms : {2000, 200, 50, 5, 0}) {
    Netlist work = golden;
    FingerprintEmbedder embedder(work, locations);
    const Budget budget = Budget::deadline_ms(ms);
    ReactiveOptions opt;
    opt.restarts = 3;
    opt.budget = &budget;
    const HeuristicOutcome out =
        reactive_reduce(embedder, base, sta, power, opt);
    std::printf("%7lld ms | %9s | %10.1f | %6.1f%%",
                static_cast<long long>(ms), to_string(out.status),
                out.bits_kept, out.overheads.delay_ratio * 100);
    // Exhausted runs name the telemetry span where the budget died, so
    // an operator can tell a deadline spent on STA trials from one spent
    // on SAT proofs without re-running under a profiler.
    if (out.status == Status::kExhausted && out.exhausted_at != nullptr &&
        out.exhausted_at[0] != '\0') {
      std::printf("  (budget died in '%s')", out.exhausted_at);
    }
    std::printf("\n");
    log::info("service.request.done")
        .field("deadline_ms", static_cast<std::int64_t>(ms))
        .field("status", to_string(out.status))
        .field("bits_kept", out.bits_kept)
        .field("delay_overhead", out.overheads.delay_ratio)
        .field("died_in",
               out.exhausted_at != nullptr ? out.exhausted_at : "");
  }

  // ---- budgeted verification of the shipped result ----
  Netlist shipped = golden;
  FingerprintEmbedder embedder(shipped, locations);
  {
    const Budget budget = Budget::deadline_ms(50);
    ReactiveOptions opt;
    opt.budget = &budget;
    reactive_reduce(embedder, base, sta, power, opt);
  }
  for (const std::int64_t conflicts : {-1, 2}) {
    BudgetedCecOptions cec_options;
    cec_options.sat_conflict_limit = conflicts;
    const Outcome<CecResult> cec = verify_equivalence_budgeted(
        golden, shipped, /*budget=*/nullptr, cec_options);
    std::printf("\nCEC (conflict limit %lld): %s via %s, confidence %.3f\n",
                static_cast<long long>(conflicts),
                to_string(cec.status()),
                cec.has_value() ? cec.value().method.c_str() : "-",
                cec.confidence());
    if (!cec.message().empty()) {
      std::printf("  %s\n", cec.message().c_str());
    }
    if (cec.status() == Status::kExhausted &&
        cec.exhausted_at()[0] != '\0') {
      std::printf("  budget died in '%s'\n", cec.exhausted_at());
    }
    log::info("service.verify.done")
        .field("conflict_limit", static_cast<std::int64_t>(conflicts))
        .field("status", to_string(cec.status()))
        .field("confidence", cec.confidence());
  }

  // ---- ship the artifact: atomic publish, never a torn file ----
  // write_blif_file goes through atomic_io (temp + fsync + rename), so a
  // customer pulling `shipped.blif` while the service restarts either
  // sees the previous complete edition or this one — never a prefix.
  const std::string shipped_path = "budgeted_service_shipped.blif";
  write_blif_file(shipped_path, shipped);
  std::printf("\nshipped artifact (atomic publish): %s\n",
              shipped_path.c_str());
  log::info("service.shipped").field("path", shipped_path);
  return 0;
}
