// Pipeline telemetry report: run the full fingerprinting flow on one
// benchmark and print where the time and the solver/heuristic effort
// actually went.
//
//   pipeline_report [circuit] [--json] [--threads N]
//
// Runs location finding (pooled), a window-ODC sample, the full
// embedding, the reactive delay heuristic, and a small multi-buyer batch
// with CEC verification — all instrumented — then dumps the hierarchical
// span tree plus per-subsystem counter breakdowns. With --json the raw
// telemetry tree is printed as JSON instead (for dashboards / diffing).
//
// Telemetry must be enabled for this tool to report anything; it turns
// the runtime toggle on itself, overriding ODCFP_TELEMETRY=0.
//
// For the event-level view of the same run, set ODCFP_TRACE:
//
//   ODCFP_TRACE=trace.json pipeline_report c880
//
// then load trace.json in chrome://tracing or https://ui.perfetto.dev —
// every span below appears as a duration event on its thread's track
// (pool workers are named pool-worker-N), joined to this report's span
// tree by the span-name strings.
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "benchgen/benchmarks.hpp"
#include "common/parallel.hpp"
#include "common/record_log.hpp"
#include "common/telemetry.hpp"
#include "common/trace.hpp"
#include "fingerprint/batch.hpp"
#include "fingerprint/heuristics.hpp"
#include "fingerprint/location.hpp"
#include "odc/window.hpp"
#include "power/power.hpp"
#include "timing/sta.hpp"

using namespace odcfp;

namespace {

std::int64_t tree_counter(const telemetry::Node& root, const char* name) {
  // Sums a counter over the whole tree (it may appear under several
  // spans — e.g. sat.solve runs under both cec.verify and batch spans).
  std::int64_t total = root.counter(name);
  for (const auto& [child_name, child] : root.children) {
    total += tree_counter(child, name);
  }
  return total;
}

void print_breakdown(const telemetry::Node& root) {
  std::printf("\n-- SAT effort --\n");
  for (const char* c : {"sat.queries", "sat.decisions", "sat.propagations",
                        "sat.conflicts", "sat.restarts",
                        "sat.learned_clauses"}) {
    std::printf("  %-22s %12lld\n", c,
                static_cast<long long>(tree_counter(root, c)));
  }
  std::printf("\n-- ODC analysis --\n");
  for (const char* c : {"odc.windows", "odc.window_gates",
                        "odc.window_inputs", "odc.refused_input_cap",
                        "odc.exhaustions"}) {
    std::printf("  %-22s %12lld\n", c,
                static_cast<long long>(tree_counter(root, c)));
  }
  std::printf("\n-- location finder (Definition 1 rejections) --\n");
  for (const char* c :
       {"loc.candidates", "loc.accepted", "loc.reject.arity",
        "loc.reject.y_not_gate_driven", "loc.reject.y_multi_fanout",
        "loc.reject.no_site_kind", "loc.reject.no_trigger"}) {
    std::printf("  %-28s %12lld\n", c,
                static_cast<long long>(tree_counter(root, c)));
  }
  std::printf("\n-- heuristic / embedding --\n");
  for (const char* c : {"heur.restarts", "heur.iterations", "heur.trials",
                        "heur.greedy_removals", "heur.random_kicks",
                        "heur.sta_evaluations", "embed.applies",
                        "embed.removes", "batch.editions_stamped"}) {
    std::printf("  %-22s %12lld\n", c,
                static_cast<long long>(tree_counter(root, c)));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string circuit = "c880";
  bool as_json = false;
  int threads = 0;  // 0 = hardware concurrency
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      as_json = true;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      std::uint64_t n = 0;
      if (i + 1 == argc || !record_log::parse_u64(argv[++i], &n) ||
          n > INT_MAX) {
        std::fprintf(stderr,
                     "usage: pipeline_report [circuit] [--json] "
                     "[--threads N]\n");
        return 2;
      }
      threads = static_cast<int>(n);
    } else {
      circuit = argv[i];
    }
  }

  telemetry::set_enabled(true);
  telemetry::reset();
  trace::set_thread_name("main");  // label this track if ODCFP_TRACE is set

  ThreadPool pool(threads);
  const Netlist golden = make_benchmark(circuit);
  const StaticTimingAnalyzer sta;
  const PowerAnalyzer power;
  const Baseline base = Baseline::measure(golden, sta, power);

  // 1. Location finding (pooled phase A, sequential commit).
  LocationFinderOptions lopts;
  lopts.pool = &pool;
  const auto locations = find_locations(golden, lopts);

  // 2. Window-ODC sample: the deeper analysis over the accepted Y nets.
  {
    std::vector<NetId> nets;
    for (const FingerprintLocation& loc : locations) {
      nets.push_back(loc.y_net);
      if (nets.size() >= 64) break;
    }
    WindowOptions wopts;
    wopts.depth = 2;
    window_odc_batch(golden, nets, wopts, &pool);
  }

  // 3. Full embedding + reactive reduction under a 10% delay budget.
  {
    Netlist work = golden;
    FingerprintEmbedder embedder(work, locations);
    ReactiveOptions ropts;
    ropts.restarts = 1;
    reactive_reduce(embedder, base, sta, power, ropts);
  }

  // 4. A small buyer batch, stamped and CEC-verified across the pool.
  {
    const Codebook book(locations, /*num_buyers=*/8, /*seed=*/2026);
    BatchOptions bopts;
    bopts.pool = &pool;
    const BatchResult batch =
        batch_fingerprint(golden, book, sta, power, bopts);
    BatchCecOptions copts;
    copts.pool = &pool;
    copts.cec.sat_conflict_limit = 50000;
    batch_verify_equivalence(golden, batch.editions, copts);
  }

  telemetry::flush_thread();
  const telemetry::Node root = telemetry::snapshot();
  if (as_json) {
    std::cout << telemetry::to_json(root) << "\n";
    return 0;
  }

  std::printf("PIPELINE REPORT — %s (%zu gates, %zu locations)\n\n",
              circuit.c_str(), golden.num_live_gates(), locations.size());
  std::printf("-- span tree (wall-clock per span; counts are calls) --\n");
  telemetry::dump_tree(std::cout, root);
  print_breakdown(root);
  std::printf("\n(span timings vary run to run; counts and counters are "
              "deterministic for a fixed pool-visible seed set)\n");
  return 0;
}
