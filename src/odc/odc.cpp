#include "odc/odc.hpp"

#include <unordered_set>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "netlist/cones.hpp"
#include "sim/simulator.hpp"

namespace odcfp {

TruthTable pin_odc(const TruthTable& tt, int pin) {
  ODCFP_CHECK(pin >= 0 && pin < tt.num_inputs());
  // (F_x XOR F_x')' — Boolean difference complemented (paper Eq. 1).
  const TruthTable diff = tt.cofactor(pin, true) ^ tt.cofactor(pin, false);
  return ~diff;
}

bool has_nonzero_odc(const TruthTable& tt, int pin) {
  const TruthTable odc = pin_odc(tt, pin);
  return odc.bits() != 0;
}

std::vector<int> controlling_values(const TruthTable& tt, int pin) {
  std::vector<int> vals;
  for (int v = 0; v <= 1; ++v) {
    if (tt.cofactor(pin, v != 0).is_constant()) vals.push_back(v);
  }
  return vals;
}

std::vector<int> trigger_values(const TruthTable& tt, int x_pin, int y_pin) {
  ODCFP_CHECK(x_pin != y_pin);
  std::vector<int> vals;
  for (int v = 0; v <= 1; ++v) {
    if (!tt.cofactor(x_pin, v != 0).depends_on(y_pin)) vals.push_back(v);
  }
  return vals;
}

double simulated_observability(const Netlist& nl, NetId net,
                               std::size_t num_words, std::uint64_t seed) {
  ODCFP_CHECK(num_words > 0);
  Rng rng(seed);
  Simulator sim(nl);

  // The set of gates downstream of `net`; only these can differ after the
  // flip, and the flipped evaluation only needs to revisit them.
  const std::vector<GateId> tfo_vec = transitive_fanout(nl, net);
  std::unordered_set<GateId> tfo(tfo_vec.begin(), tfo_vec.end());
  const std::vector<GateId> order = nl.topo_order_fast();

  std::uint64_t observable = 0;
  for (std::size_t w = 0; w < num_words; ++w) {
    sim.randomize_inputs(rng);
    sim.run();

    // Re-evaluate the fanout cone with the net complemented.
    std::vector<std::uint64_t> alt(nl.num_nets());
    for (NetId n = 0; n < nl.num_nets(); ++n) alt[n] = sim.value(n);
    alt[net] = ~alt[net];
    std::vector<const std::uint64_t*> ins;
    for (GateId g : order) {
      if (!tfo.count(g)) continue;
      const Gate& gt = nl.gate(g);
      ins.clear();
      for (NetId in : gt.fanins) ins.push_back(&alt[in]);
      // If some gate both feeds and is fed by `net` we would have a cycle;
      // topo order plus DAG-ness guarantees inputs are final here.
      eval_signature(nl.library().cell(gt.cell).function, ins,
                     &alt[gt.output], 1);
      if (gt.output == net) alt[gt.output] = ~alt[gt.output];
    }

    std::uint64_t diff = 0;
    for (const OutputPort& p : nl.outputs()) {
      diff |= alt[p.net] ^ sim.value(p.net);
    }
    observable += static_cast<std::uint64_t>(__builtin_popcountll(diff));
  }
  return static_cast<double>(observable) /
         (static_cast<double>(num_words) * 64.0);
}

std::vector<GateOdcInfo> analyze_gate_odcs(const Netlist& nl) {
  std::vector<GateOdcInfo> info(nl.num_gates());
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    if (nl.gate(g).is_dead()) continue;
    const TruthTable& tt = nl.cell_of(g).function;
    GateOdcInfo& gi = info[g];
    gi.pins_with_odc.resize(static_cast<std::size_t>(tt.num_inputs()));
    for (int pin = 0; pin < tt.num_inputs(); ++pin) {
      const bool nz = has_nonzero_odc(tt, pin);
      gi.pins_with_odc[static_cast<std::size_t>(pin)] = nz;
      gi.any_odc = gi.any_odc || nz;
    }
  }
  return info;
}

}  // namespace odcfp
