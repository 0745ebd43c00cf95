// Ablation: exact window don't-care analysis vs the paper's gate-local
// ODC (Eq. 1) — how much extra hiding capacity do deeper windows expose?
//
// For sampled internal nets we compute the exact window-ODC fraction at
// depths 1..3 (truth tables over the free side inputs). Depth 1
// corresponds to the paper's local analysis; the growth at depth 2-3
// quantifies "ODCs can be several layers deep" (§III.A). The SDC panel
// measures how many gates have provably-unreachable input patterns (the
// companion SDC fingerprinting technique, paper ref. [9]).
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "fingerprint/sdc_fingerprint.hpp"
#include "odc/window.hpp"

using namespace odcfp;
using namespace odcfp::bench;

int main() {
  ThreadPool pool;  // hardware concurrency; windows are independent
  BenchReport report("ablation_window");
  std::printf("WINDOW DON'T-CARE ABLATION (exact, truth tables)\n\n");
  std::printf("%-7s | %21s | %21s | %21s\n", "", "depth 1", "depth 2",
              "depth 3");
  std::printf("%-7s | %10s %10s | %10s %10s | %10s %10s\n", "circuit",
              "hidden%", "avgODC", "hidden%", "avgODC", "hidden%",
              "avgODC");
  print_rule(80);

  std::vector<const char*> kCircuits = {"c432", "c499", "c880", "c1908",
                                        "vda"};
  if (smoke()) kCircuits.resize(2);
  for (const char* name : kCircuits) {
    const Netlist nl = make_benchmark(name);
    std::vector<NetId> internal;
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      if (nl.net(n).driver != kInvalidGate && !nl.net(n).fanouts.empty()) {
        internal.push_back(n);
      }
    }
    Rng rng(7);
    rng.shuffle(internal);
    const std::size_t sample =
        std::min<std::size_t>(internal.size(), smoke() ? 30 : 150);

    std::printf("%-7s |", name);
    for (int depth = 1; depth <= 3; ++depth) {
      WindowOptions opt;
      opt.depth = depth;
      std::size_t computed = 0, hidden = 0;
      double sum_frac = 0;
      const std::vector<NetId> nets(internal.begin(),
                                    internal.begin() +
                                        static_cast<std::ptrdiff_t>(sample));
      for (const WindowOdcResult& r : window_odc_batch(nl, nets, opt,
                                                       &pool)) {
        if (!r.computed) continue;
        ++computed;
        sum_frac += r.odc_fraction;
        if (r.odc_fraction > 0) ++hidden;
      }
      if (computed == 0) {
        std::printf(" %10s %10s |", "-", "-");
        continue;
      }
      report.add_row(name)
          .label("panel", "window-odc")
          .metric("depth", depth)
          .metric("computed", static_cast<double>(computed))
          .metric("hidden_frac",
                  static_cast<double>(hidden) / computed)
          .metric("avg_odc_fraction", sum_frac / computed);
      std::printf(" %9.1f%% %9.3f %s", 100.0 * hidden / computed,
                  sum_frac / computed, depth < 3 ? "|" : "|");
    }
    std::printf("\n");
  }

  std::printf("\nSDC panel — gates with provably impossible input "
              "patterns (depth-3 cones)\n\n");
  std::printf("%-7s %9s %10s %14s %12s\n", "circuit", "gates", "computed",
              "gates-w-SDC", "avg-imposs");
  print_rule(58);
  for (const char* name : kCircuits) {
    const Netlist nl = make_benchmark(name);
    WindowOptions opt;
    opt.depth = 3;
    const auto order = nl.topo_order();
    std::size_t computed = 0, with_sdc = 0;
    double sum_impossible = 0;
    const std::size_t stride = smoke() ? 8 : 2;
    for (std::size_t i = 0; i < order.size(); i += stride) {
      const WindowSdcResult r = window_sdc(nl, order[i], opt);
      if (!r.computed) continue;
      ++computed;
      if (r.impossible_patterns > 0) {
        ++with_sdc;
        sum_impossible += r.impossible_patterns;
      }
    }
    report.add_row(name)
        .label("panel", "sdc")
        .metric("gates", static_cast<double>(order.size()))
        .metric("computed", static_cast<double>(computed))
        .metric("gates_with_sdc_frac",
                computed ? static_cast<double>(with_sdc) / computed : 0.0)
        .metric("avg_impossible_patterns",
                with_sdc ? sum_impossible / with_sdc : 0.0);
    std::printf("%-7s %9zu %10zu %13.1f%% %12.2f\n", name, order.size(),
                computed,
                computed ? 100.0 * with_sdc / computed : 0.0,
                with_sdc ? sum_impossible / with_sdc : 0.0);
  }
  std::printf("\nSDC FINGERPRINTING CAPACITY (the companion technique, "
              "paper ref. [9]: cell swaps\nhidden under unreachable "
              "input patterns) vs this paper's ODC capacity\n\n");
  std::printf("%-7s %10s %10s %12s %12s\n", "circuit", "sdc-locs",
              "sdc-bits", "odc-bits", "combined");
  print_rule(56);
  for (const char* name : kCircuits) {
    const Netlist nl = make_benchmark(name);
    const auto sdc_locs = find_sdc_locations(nl);
    const auto odc_locs = find_locations(nl);
    const double sdc_bits = total_sdc_capacity_bits(sdc_locs);
    const double odc_bits = total_capacity_bits(odc_locs);
    report.add_row(name)
        .label("panel", "sdc-capacity")
        .metric("sdc_locations", static_cast<double>(sdc_locs.size()))
        .metric("sdc_bits", sdc_bits)
        .metric("odc_bits", odc_bits);
    std::printf("%-7s %10zu %10.1f %12.1f %12.1f\n", name,
                sdc_locs.size(), sdc_bits, odc_bits,
                sdc_bits + odc_bits);
  }

  std::printf("\n(the depth-1 column is the paper's gate-local regime; "
              "deeper windows reveal\n substantially more don't-care "
              "space — the paper's natural extension)\n");
  return 0;
}
