#include "odc/window.hpp"

#include <algorithm>
#include <bit>
#include <unordered_map>
#include <unordered_set>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/telemetry.hpp"
#include "odc/odc.hpp"
#include "sim/simulator.hpp"

namespace odcfp {

namespace {

/// One truth table per window net over the window's free leaves, each
/// words() words long, in one buffer sized up front for `nets` tables.
class WindowTables {
 public:
  WindowTables(int leaves, std::size_t nets)
      : words_(leaves <= 6 ? 1 : std::size_t{1} << (leaves - 6)),
        data_(nets * words_) {}

  std::size_t words() const { return words_; }

  /// The table of `net`, which must have one.
  const std::uint64_t* of(NetId net) const {
    const auto it = slot_.find(net);
    ODCFP_CHECK(it != slot_.end());
    return &data_[it->second];
  }

  /// `net` is free leaf `i`.
  void add_leaf(NetId net, std::size_t i) {
    std::uint64_t* table = add(net);
    for (std::size_t w = 0; w < words_; ++w) {
      table[w] = projection_word(i, w);
    }
  }

  /// `net` is held at `value`.
  void add_constant(NetId net, bool value) {
    std::fill_n(add(net), words_, value ? ~0ull : 0);
  }

  /// The output of gate `g`, from its fanins' tables.
  void add_gate(const Netlist& nl, GateId g) {
    ins_.clear();
    for (NetId in : nl.gate(g).fanins) ins_.push_back(of(in));
    eval_signature(nl.cell_of(g).function, ins_, add(nl.gate(g).output),
                   words_);
  }

 private:
  std::uint64_t* add(NetId net) {
    const std::size_t at = slot_.size() * words_;
    ODCFP_CHECK(at < data_.size());
    slot_.emplace(net, at);
    return &data_[at];
  }

  std::size_t words_;
  std::vector<std::uint64_t> data_;
  std::unordered_map<NetId, std::size_t> slot_;
  std::vector<const std::uint64_t*> ins_;
};

}  // namespace

double local_odc_fraction(const Netlist& nl, NetId net) {
  // An output-port net is directly observable: no ODC through that path.
  if (nl.net(net).num_output_ports > 0) return 0.0;
  double fraction = 1.0;
  for (const FanoutRef& ref : nl.net(net).fanouts) {
    const TruthTable& tt =
        nl.library().cell(nl.gate(ref.gate).cell).function;
    const TruthTable odc = pin_odc(tt, ref.pin);
    fraction *= static_cast<double>(std::popcount(odc.bits())) /
                static_cast<double>(odc.num_rows());
    if (fraction == 0.0) break;
  }
  return fraction;
}

WindowOdcResult window_odc(const Netlist& nl, NetId net,
                           const WindowOptions& options) {
  TELEM_SPAN("odc.window");
  TELEM_COUNT("odc.windows", 1);
  WindowOdcResult result;
  if (nl.net(net).num_output_ports > 0) {
    // Observed at its port whatever the window does: 0 is exact.
    result.computed = true;
    result.output_closed = true;
    return result;
  }

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
  std::vector<NetId> window_outputs;
  bool any_outside_gate = false;
  for (GateId g : window) {
    const NetId out = nl.gate(g).output;
    bool observed = nl.net(out).num_output_ports > 0;
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
  if (result.window_inputs > kMaxWindowInputs) {
    TELEM_COUNT("odc.refused_input_cap", 1);
    result.status = Status::kInfeasible;  // refused by the input cap
    return result;                        // computed == false
  }

  // 3. Evaluate the window twice (net = 0 and net = 1): one truth table
  // per window net over the side inputs.
  const std::size_t nets = side_inputs.size() + 1 + window.size();
  WindowTables at0(result.window_inputs, nets);
  WindowTables at1(result.window_inputs, nets);
  for (std::size_t i = 0; i < side_inputs.size(); ++i) {
    at0.add_leaf(side_inputs[i], i);
    at1.add_leaf(side_inputs[i], i);
  }
  at0.add_constant(net, false);
  at1.add_constant(net, true);

  for (GateId g : nl.topo_order()) {
    if (!window.count(g)) continue;
    ODCFP_FAULT_POINT("odc.window.gate");
    // Degradation point: budget expiry mid-window falls back to the
    // sound local Eq. 1 estimate instead of churning on.
    if (budget_exhausted(options.budget)) {
      TELEM_COUNT("odc.exhaustions", 1);
      if (log::enabled(log::Level::kDebug)) {
        log::debug("odc.window.degraded")
            .field("net", static_cast<std::int64_t>(net))
            .field("window_inputs", result.window_inputs);
      }
      result.computed = true;
      result.degraded = true;
      result.status = Status::kExhausted;
      result.output_closed = false;
      result.odc_fraction = local_odc_fraction(nl, net);
      return result;
    }
    at0.add_gate(nl, g);
    at1.add_gate(nl, g);
  }

  // 4. ODC condition: every observed net agrees under net=0 and net=1.
  // Its fraction is its popcount over its bits; with fewer than 6 side
  // inputs the one-word table repeats with period 2^n.
  std::vector<std::uint64_t> odc(at0.words(), ~0ull);
  for (NetId out : window_outputs) {
    const std::uint64_t* v0 = at0.of(out);
    const std::uint64_t* v1 = at1.of(out);
    for (std::size_t w = 0; w < odc.size(); ++w) odc[w] &= ~(v0[w] ^ v1[w]);
  }
  std::uint64_t hidden = 0;
  for (const std::uint64_t word : odc) hidden += std::popcount(word);
  result.computed = true;
  result.odc_fraction = static_cast<double>(hidden) /
                        static_cast<double>(64 * odc.size());
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
  if (result.cone_inputs > kMaxWindowInputs) {
    result.status = Status::kInfeasible;
    return result;
  }

  // 3. Truth tables of the gate's fanin signals over the boundary
  // variables.
  WindowTables tables(result.cone_inputs, boundary.size() + cone.size());
  for (std::size_t i = 0; i < boundary.size(); ++i) {
    tables.add_leaf(boundary[i], i);
  }
  for (GateId g : nl.topo_order()) {
    if (!cone.count(g)) continue;
    ODCFP_FAULT_POINT("odc.sdc.gate");
    // Degradation point: an empty impossible set is always sound (it
    // merely claims nothing about reachability), so an expired budget
    // reports "no patterns proved impossible" rather than failing.
    if (budget_exhausted(options.budget)) {
      TELEM_COUNT("odc.exhaustions", 1);
      result.computed = true;
      result.degraded = true;
      result.status = Status::kExhausted;
      return result;
    }
    tables.add_gate(nl, g);
  }

  // 4. A gate-input pattern is impossible iff no boundary assignment
  // produces it: its characteristic condition's table is all zero.
  std::vector<const std::uint64_t*> fanin;
  for (NetId in : gt.fanins) fanin.push_back(tables.of(in));
  for (unsigned p = 0; p < static_cast<unsigned>(result.num_patterns);
       ++p) {
    bool reachable = false;
    for (std::size_t w = 0; w < tables.words() && !reachable; ++w) {
      std::uint64_t cond = ~0ull;
      for (int i = 0; i < k; ++i) {
        const std::uint64_t f = fanin[static_cast<std::size_t>(i)][w];
        cond &= ((p >> i) & 1) ? f : ~f;
      }
      reachable = cond != 0;
    }
    if (!reachable) {
      ++result.impossible_patterns;
      result.impossible_mask |= std::uint64_t{1} << p;
    }
  }
  result.computed = true;
  return result;
}

}  // namespace odcfp
