#include "power/power.hpp"

#include <array>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace odcfp {

namespace {

/// The model's constants (power.hpp): P(PI == 1), the fraction of a net's
/// load counted toward dynamic power, and the frequency/voltage lump
/// factor.
constexpr double kInputOneProbability = 0.5;
constexpr double kLoadWeight = 0.4;
constexpr double kScale = 7.0;

/// P(out == 1) for a cell given independent pin probabilities: over the
/// on-set rows in ascending order, the sum of each row's product of pin
/// terms in pin order. The rows are the set bits of the table (a table
/// keeps no bit past its last row).
double output_probability(const TruthTable& tt, const double* pin_prob) {
  const int k = tt.num_inputs();
  double p = 0;
  for (std::uint64_t on = tt.bits(); on != 0; on &= on - 1) {
    const auto row = static_cast<unsigned>(__builtin_ctzll(on));
    double term = 1;
    for (int i = 0; i < k; ++i) {
      const double pi = pin_prob[i];
      term *= ((row >> i) & 1) ? pi : (1 - pi);
    }
    p += term;
  }
  return p;
}

}  // namespace

double PowerAnalyzer::accumulate(const Netlist& nl, PowerReport& rep) const {
  rep.activity.assign(nl.num_nets(), 0);
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const double p = rep.probability[n];
    rep.activity[n] = 2 * p * (1 - p);
  }
  double power = 0;
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    if (nl.gate(g).is_dead()) continue;
    const NetId out = nl.gate(g).output;
    const double alpha = rep.activity[out];
    power += alpha * kLoadWeight * StaticTimingAnalyzer::net_load(nl, out);
    power += alpha * nl.cell_of(g).switch_energy;
  }
  // PI nets also toggle and drive loads.
  for (NetId pi : nl.inputs()) {
    power += rep.activity[pi] * kLoadWeight *
             StaticTimingAnalyzer::net_load(nl, pi);
  }
  return kScale * power;
}

PowerReport PowerAnalyzer::analyze(const Netlist& nl) const {
  PowerReport rep;
  rep.probability.assign(nl.num_nets(), 0);
  for (NetId pi : nl.inputs()) {
    rep.probability[pi] = kInputOneProbability;
  }
  std::array<double, TruthTable::kMaxInputs> pins{};
  for (GateId g : nl.topo_order_fast()) {
    const Gate& gt = nl.gate(g);
    ODCFP_CHECK(gt.fanins.size() <= pins.size());
    for (std::size_t i = 0; i < gt.fanins.size(); ++i) {
      pins[i] = rep.probability[gt.fanins[i]];
    }
    rep.probability[gt.output] =
        output_probability(nl.library().cell(gt.cell).function, pins.data());
  }
  rep.dynamic_power = accumulate(nl, rep);
  return rep;
}

PowerReport PowerAnalyzer::analyze_by_simulation(const Netlist& nl,
                                                 std::size_t num_words,
                                                 std::uint64_t seed) const {
  ODCFP_CHECK(num_words > 0);
  Rng rng(seed);
  Simulator sim(nl);
  std::vector<std::uint64_t> ones(nl.num_nets(), 0);
  for (std::size_t w = 0; w < num_words; ++w) {
    sim.randomize_inputs(rng);
    sim.run();
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      ones[n] += static_cast<std::uint64_t>(
          __builtin_popcountll(sim.value(n)));
    }
  }
  PowerReport rep;
  rep.probability.assign(nl.num_nets(), 0);
  const double total = static_cast<double>(num_words) * 64.0;
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    rep.probability[n] = static_cast<double>(ones[n]) / total;
  }
  rep.dynamic_power = accumulate(nl, rep);
  return rep;
}

}  // namespace odcfp
