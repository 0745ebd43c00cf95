#include "netlist/cones.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/check.hpp"

namespace odcfp {

std::vector<GateId> transitive_fanin(const Netlist& nl, NetId net) {
  std::vector<GateId> stack;
  std::unordered_set<GateId> seen;
  const GateId d = nl.net(net).driver;
  if (d != kInvalidGate) {
    stack.push_back(d);
    seen.insert(d);
  }
  std::vector<GateId> result;
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    result.push_back(g);
    for (NetId in : nl.gate(g).fanins) {
      const GateId dd = nl.net(in).driver;
      if (dd != kInvalidGate && seen.insert(dd).second) stack.push_back(dd);
    }
  }
  return result;
}

std::vector<GateId> transitive_fanout(const Netlist& nl, NetId net) {
  std::vector<GateId> stack;
  std::unordered_set<GateId> seen;
  for (const FanoutRef& ref : nl.net(net).fanouts) {
    if (seen.insert(ref.gate).second) stack.push_back(ref.gate);
  }
  std::vector<GateId> result;
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    result.push_back(g);
    for (const FanoutRef& ref : nl.net(nl.gate(g).output).fanouts) {
      if (seen.insert(ref.gate).second) stack.push_back(ref.gate);
    }
  }
  return result;
}

std::vector<GateId> mffc(const Netlist& nl, GateId root) {
  ODCFP_CHECK(!nl.gate(root).is_dead());
  std::unordered_set<GateId> inside;
  inside.insert(root);
  std::vector<GateId> result{root};
  // Worklist of candidate gates: fanins of gates already inside.
  std::vector<GateId> frontier{root};
  // A gate joins the MFFC when all of its fanouts are inside and its output
  // is not a primary output. Iterate to a fixed point; each accepted gate
  // exposes its own fanins as new candidates.
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<GateId> candidates;
    std::unordered_set<GateId> cand_seen;
    for (GateId g : result) {
      for (NetId in : nl.gate(g).fanins) {
        const GateId d = nl.net(in).driver;
        if (d != kInvalidGate && !inside.count(d) &&
            cand_seen.insert(d).second) {
          candidates.push_back(d);
        }
      }
    }
    for (GateId c : candidates) {
      const NetId out = nl.gate(c).output;
      if (nl.net(out).num_output_ports > 0) continue;
      bool all_inside = !nl.net(out).fanouts.empty();
      for (const FanoutRef& ref : nl.net(out).fanouts) {
        if (!inside.count(ref.gate)) { all_inside = false; break; }
      }
      if (all_inside) {
        inside.insert(c);
        result.push_back(c);
        changed = true;
      }
    }
  }
  (void)frontier;
  return result;
}

}  // namespace odcfp
