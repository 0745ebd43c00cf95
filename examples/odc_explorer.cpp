// ODC explorer: what the don't-care analyses see in a circuit.
//
// Walks a generated c432-class controller and reports, for a sample of
// nets: the gate-local ODC verdict (the paper's Eq. 1 criterion), the
// exact window-ODC fraction at increasing depths (truth tables), and the
// Monte-Carlo observability — then prints the first fingerprint location
// in Graphviz DOT form with the primary/site/trigger gates highlighted.
#include <algorithm>
#include <cstdio>

#include "benchgen/benchmarks.hpp"
#include "fingerprint/location.hpp"
#include "netlist/dot.hpp"
#include "odc/odc.hpp"
#include "odc/window.hpp"

using namespace odcfp;

int main() {
  const Netlist nl = make_benchmark("c432");
  std::printf("c432-class controller: %zu gates, %zu nets\n\n",
              nl.num_live_gates(), nl.num_nets());

  std::printf("%-12s %10s %10s %10s %12s\n", "net", "odc@d1", "odc@d2",
              "odc@d3", "sim-observ");
  std::printf("------------------------------------------------------------\n");
  std::size_t printed = 0;
  for (NetId n = 0; n < nl.num_nets() && printed < 12; ++n) {
    if (nl.net(n).driver == kInvalidGate || nl.net(n).fanouts.empty()) {
      continue;
    }
    if (n % 17 != 0) continue;  // sample
    double frac[3] = {-1, -1, -1};
    for (int d = 1; d <= 3; ++d) {
      const WindowOdcResult r = window_odc(nl, n, {.depth = d});
      if (r.computed) frac[d - 1] = r.odc_fraction;
    }
    const double obs = simulated_observability(nl, n, 64, 7);
    auto cell = [&](double v) {
      static char buf[4][16];
      static int slot = 0;
      slot = (slot + 1) % 4;
      if (v < 0) {
        std::snprintf(buf[slot], sizeof(buf[slot]), "(wide)");
      } else {
        std::snprintf(buf[slot], sizeof(buf[slot]), "%.3f", v);
      }
      return buf[slot];
    };
    std::printf("%-12s %10s %10s %10s %12.3f\n",
                nl.net(n).name.c_str(), cell(frac[0]), cell(frac[1]),
                cell(frac[2]), obs);
    ++printed;
  }

  const auto locs = find_locations(nl);
  std::printf("\n%zu fingerprint locations; first location:\n",
              locs.size());
  if (locs.empty()) return 0;
  const FingerprintLocation& loc = locs[0];
  std::printf("  primary %s, Y=%s via pin %d, trigger %s=%d, %zu site(s), "
              "%.2f bits\n",
              nl.gate(loc.primary).name.c_str(),
              nl.net(loc.y_net).name.c_str(), loc.y_pin,
              nl.net(loc.trigger_net).name.c_str(), loc.trigger_value,
              loc.sites.size(), loc.capacity_bits());

  // DOT snippet of the neighborhood (full graph is large; print header +
  // highlighted nodes so the output stays readable).
  DotOptions dopt;
  dopt.gate_attributes[nl.gate(loc.primary).name] =
      "fillcolor=gold,style=filled";
  for (const auto& site : loc.sites) {
    dopt.gate_attributes[nl.gate(site.gate).name] =
        "fillcolor=tomato,style=filled";
  }
  const std::string dot = to_dot_string(nl, dopt);
  std::printf("\nDOT export: %zu bytes (write to a file and render with "
              "graphviz)\n",
              dot.size());
  std::printf("highlighted: primary=gold, injection site=tomato\n");
  return 0;
}
