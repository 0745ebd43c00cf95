// Switching-activity-based dynamic power estimation.
//
// Supplies the paper's "power" metric. Signal probabilities are propagated
// from the primary inputs (each 1 with probability 0.5) through each
// cell's truth table assuming spatial independence (the classic
// zero-delay model); switching activity of a net is alpha = 2 p (1-p),
// and dynamic power accumulates
//   P = 7 * sum_nets alpha(net) * 0.4 * C_load(net)
//     + 7 * sum_gates alpha(out) * switch_energy(cell),
// where C_load is StaticTimingAnalyzer::net_load (the STA's load model),
// 0.4 the fraction of that pin/wire load counted toward dynamic power
// (the "effective capacitance"; cell-internal switch energy counts
// fully) and 7 a frequency/voltage lump factor. The constants are fixed,
// like the STA's.
//
// An optional simulation-based mode measures toggle counts from random
// patterns instead (used in tests to validate the analytic model).
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "timing/sta.hpp"

namespace odcfp {

struct PowerReport {
  double dynamic_power = 0.0;
  std::vector<double> probability;  ///< P(net == 1), indexed by NetId.
  std::vector<double> activity;     ///< 2p(1-p), indexed by NetId.
};

class PowerAnalyzer {
 public:
  /// User-provided, so a const analyzer member needs no initializer.
  PowerAnalyzer() {}

  /// Analytic (probability-propagation) estimate.
  PowerReport analyze(const Netlist& nl) const;

  /// Monte-Carlo estimate: activities measured from `num_words` random
  /// 64-pattern words. Converges to analyze() for independent inputs
  /// modulo reconvergent-fanout correlation.
  PowerReport analyze_by_simulation(const Netlist& nl,
                                    std::size_t num_words,
                                    std::uint64_t seed) const;

 private:
  double accumulate(const Netlist& nl, PowerReport& rep) const;
};

}  // namespace odcfp
