#include "odc/window.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/telemetry.hpp"
#include "odc/odc.hpp"

namespace odcfp {

namespace {

/// Builds the BDD of one gate output from its fanin BDDs (sum of the
/// truth table's on-set minterms).
BddRef build_gate_bdd(BddManager& mgr, const TruthTable& tt,
                      const std::vector<BddRef>& fanins) {
  BddRef acc = mgr.zero();
  for (unsigned p = 0; p < tt.num_rows(); ++p) {
    if (!tt.eval(p)) continue;
    BddRef term = mgr.one();
    for (int i = 0; i < tt.num_inputs(); ++i) {
      const BddRef f = fanins[static_cast<std::size_t>(i)];
      term = mgr.and_(term, ((p >> i) & 1) ? f : mgr.not_(f));
    }
    acc = mgr.or_(acc, term);
  }
  if (tt.num_inputs() == 0) {
    return (tt.is_constant() && tt.constant_value()) ? mgr.one()
                                                     : mgr.zero();
  }
  return acc;
}

}  // namespace

double local_odc_fraction(const Netlist& nl, NetId net) {
  double fraction = 1.0;
  for (const FanoutRef& ref : nl.net(net).fanouts) {
    const TruthTable& tt =
        nl.library().cell(nl.gate(ref.gate).cell).function;
    const TruthTable odc = pin_odc(tt, ref.pin);
    unsigned hidden = 0;
    for (unsigned p = 0; p < odc.num_rows(); ++p) {
      if (odc.eval(p)) ++hidden;
    }
    fraction *= static_cast<double>(hidden) /
                static_cast<double>(odc.num_rows());
    if (fraction == 0.0) break;
  }
  // An output-port net is directly observable: no ODC through that path.
  for (const OutputPort& po : nl.outputs()) {
    if (po.net == net) return 0.0;
  }
  return fraction;
}

WindowOdcResult window_odc(const Netlist& nl, NetId net,
                           const WindowOptions& options) {
  TELEM_SPAN("odc.window");
  TELEM_COUNT("odc.windows", 1);
  WindowOdcResult result;

  // 1. Window gates: bounded-depth BFS through the fanout of `net`.
  std::unordered_set<GateId> window;
  std::vector<GateId> frontier;
  for (const FanoutRef& ref : nl.net(net).fanouts) {
    if (window.insert(ref.gate).second) frontier.push_back(ref.gate);
  }
  for (int d = 1; d < options.depth && !frontier.empty(); ++d) {
    std::vector<GateId> next;
    for (GateId g : frontier) {
      for (const FanoutRef& ref : nl.net(nl.gate(g).output).fanouts) {
        if (window.insert(ref.gate).second) next.push_back(ref.gate);
      }
    }
    frontier = std::move(next);
  }
  result.window_gates = window.size();
  if (window.empty()) {
    // Nothing reads the net: it is trivially unobservable.
    result.computed = true;
    result.odc_fraction = 1.0;
    result.output_closed = true;
    return result;
  }

  // 2. Window outputs (nets observed outside) and side inputs.
  std::unordered_set<NetId> po_nets;
  for (const OutputPort& p : nl.outputs()) po_nets.insert(p.net);

  std::vector<NetId> window_outputs;
  bool any_outside_gate = false;
  for (GateId g : window) {
    const NetId out = nl.gate(g).output;
    bool observed = po_nets.count(out) > 0;
    for (const FanoutRef& ref : nl.net(out).fanouts) {
      if (!window.count(ref.gate)) {
        observed = true;
        any_outside_gate = true;
      }
    }
    if (observed) window_outputs.push_back(out);
  }
  result.output_closed = !any_outside_gate;

  std::vector<NetId> side_inputs;
  std::unordered_set<NetId> side_seen;
  for (GateId g : window) {
    for (NetId in : nl.gate(g).fanins) {
      if (in == net) continue;
      const GateId d = nl.net(in).driver;
      if (d != kInvalidGate && window.count(d)) continue;
      if (side_seen.insert(in).second) side_inputs.push_back(in);
    }
  }
  std::sort(side_inputs.begin(), side_inputs.end());
  result.window_inputs = static_cast<int>(side_inputs.size());
  TELEM_COUNT("odc.window_gates",
              static_cast<std::int64_t>(result.window_gates));
  TELEM_HIST("odc.window_cone_gates",
             static_cast<std::uint64_t>(result.window_gates));
  TELEM_COUNT("odc.window_inputs", result.window_inputs);
  if (result.window_inputs > options.max_window_inputs) {
    TELEM_COUNT("odc.refused_input_cap", 1);
    result.status = Status::kInfeasible;  // refused by the input cap
    return result;                        // computed == false
  }

  // 3. Evaluate the window twice (net = 0 and net = 1) over BDDs.
  BddManager mgr(result.window_inputs);
  std::unordered_map<NetId, BddRef> val0, val1;
  for (std::size_t i = 0; i < side_inputs.size(); ++i) {
    const BddRef v = mgr.var(static_cast<int>(i));
    val0[side_inputs[i]] = v;
    val1[side_inputs[i]] = v;
  }
  val0[net] = mgr.zero();
  val1[net] = mgr.one();

  for (GateId g : nl.topo_order()) {
    if (!window.count(g)) continue;
    ODCFP_FAULT_POINT("odc.window.gate");
    // Degradation point: BDD blow-up or budget expiry mid-window falls
    // back to the sound local Eq. 1 estimate instead of churning on.
    if (mgr.size() > options.max_bdd_nodes ||
        budget_exhausted(options.budget)) {
      TELEM_COUNT("odc.exhaustions", 1);
      if (log::enabled(log::Level::kDebug)) {
        log::debug("odc.window.degraded")
            .field("net", static_cast<std::int64_t>(net))
            .field("bdd_nodes", static_cast<std::int64_t>(mgr.size()))
            .field("window_inputs", result.window_inputs);
      }
      result.computed = true;
      result.degraded = true;
      result.status = Status::kExhausted;
      result.output_closed = false;
      result.odc_fraction = local_odc_fraction(nl, net);
      return result;
    }
    const TruthTable& tt = nl.library().cell(nl.gate(g).cell).function;
    std::vector<BddRef> in0, in1;
    for (NetId in : nl.gate(g).fanins) {
      ODCFP_CHECK(val0.count(in) && val1.count(in));
      in0.push_back(val0[in]);
      in1.push_back(val1[in]);
    }
    val0[nl.gate(g).output] = build_gate_bdd(mgr, tt, in0);
    val1[nl.gate(g).output] = build_gate_bdd(mgr, tt, in1);
  }

  // 4. ODC condition: every observed net agrees under net=0 and net=1.
  BddRef odc = mgr.one();
  for (NetId out : window_outputs) {
    odc = mgr.and_(odc, mgr.xnor_(val0[out], val1[out]));
  }
  result.computed = true;
  result.odc_fraction =
      mgr.count_minterms(odc) /
      std::pow(2.0, static_cast<double>(result.window_inputs));
  return result;
}

std::vector<WindowOdcResult> window_odc_batch(
    const Netlist& nl, const std::vector<NetId>& nets,
    const WindowOptions& options, ThreadPool* pool) {
  // Pre-fill the skipped-item marker: when a shared budget dies mid-batch
  // the pool stops handing out items, and untouched slots must not read
  // as "always observable".
  std::vector<WindowOdcResult> results(nets.size());
  for (WindowOdcResult& r : results) r.status = Status::kExhausted;
  TELEM_SPAN("odc.window_batch");
  parallel_for(
      pool, nets.size(),
      [&](std::size_t i) { results[i] = window_odc(nl, nets[i], options); },
      options.budget);
  return results;
}

WindowSdcResult window_sdc(const Netlist& nl, GateId gate,
                           const WindowOptions& options) {
  TELEM_SPAN("odc.sdc");
  WindowSdcResult result;
  const Gate& gt = nl.gate(gate);
  const int k = static_cast<int>(gt.fanins.size());
  result.num_patterns = 1 << k;

  // 1. Bounded fanin cone of the gate's input signals.
  std::unordered_set<GateId> cone;
  std::vector<GateId> frontier;
  for (NetId in : gt.fanins) {
    const GateId d = nl.net(in).driver;
    if (d != kInvalidGate && cone.insert(d).second) frontier.push_back(d);
  }
  for (int lvl = 1; lvl < options.depth && !frontier.empty(); ++lvl) {
    std::vector<GateId> next;
    for (GateId g : frontier) {
      for (NetId in : nl.gate(g).fanins) {
        const GateId d = nl.net(in).driver;
        if (d != kInvalidGate && cone.insert(d).second) {
          next.push_back(d);
        }
      }
    }
    frontier = std::move(next);
  }

  // 2. Boundary variables.
  std::vector<NetId> boundary;
  std::unordered_set<NetId> seen;
  auto add_boundary = [&](NetId n) {
    const GateId d = nl.net(n).driver;
    if ((d == kInvalidGate || !cone.count(d)) && seen.insert(n).second) {
      boundary.push_back(n);
    }
  };
  for (GateId g : cone) {
    for (NetId in : nl.gate(g).fanins) add_boundary(in);
  }
  for (NetId in : gt.fanins) add_boundary(in);
  std::sort(boundary.begin(), boundary.end());
  result.cone_inputs = static_cast<int>(boundary.size());
  if (result.cone_inputs > options.max_window_inputs) {
    result.status = Status::kInfeasible;
    return result;
  }

  // 3. BDDs of the gate's fanin signals over the boundary variables.
  BddManager mgr(result.cone_inputs);
  std::unordered_map<NetId, BddRef> val;
  for (std::size_t i = 0; i < boundary.size(); ++i) {
    val[boundary[i]] = mgr.var(static_cast<int>(i));
  }
  for (GateId g : nl.topo_order()) {
    if (!cone.count(g)) continue;
    ODCFP_FAULT_POINT("odc.sdc.gate");
    // Degradation point: an empty impossible set is always sound (it
    // merely claims nothing about reachability), so a blown node cap or
    // budget reports "no patterns proved impossible" rather than failing.
    if (mgr.size() > options.max_bdd_nodes ||
        budget_exhausted(options.budget)) {
      TELEM_COUNT("odc.exhaustions", 1);
      result.computed = true;
      result.degraded = true;
      result.status = Status::kExhausted;
      return result;
    }
    const TruthTable& tt = nl.library().cell(nl.gate(g).cell).function;
    std::vector<BddRef> ins;
    for (NetId in : nl.gate(g).fanins) {
      ODCFP_CHECK(val.count(in));
      ins.push_back(val[in]);
    }
    val[nl.gate(g).output] = build_gate_bdd(mgr, tt, ins);
  }

  // 4. A gate-input pattern is impossible iff its characteristic
  // condition over the boundary variables is unsatisfiable.
  for (unsigned p = 0; p < static_cast<unsigned>(result.num_patterns);
       ++p) {
    BddRef cond = mgr.one();
    for (int i = 0; i < k; ++i) {
      const BddRef f = val[gt.fanins[static_cast<std::size_t>(i)]];
      cond = mgr.and_(cond, ((p >> i) & 1) ? f : mgr.not_(f));
      if (cond == mgr.zero()) break;
    }
    if (cond == mgr.zero()) {
      ++result.impossible_patterns;
      result.impossible_mask |= 1u << p;
    }
  }
  result.computed = true;
  return result;
}

}  // namespace odcfp
