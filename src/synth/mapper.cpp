#include "synth/mapper.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/check.hpp"
#include "synth/isop.hpp"

namespace odcfp {

namespace {

/// Widest AND/OR/NAND/NOR used when building trees (clamped to what the
/// library offers).
constexpr int kMaxTreeArity = 4;

/// Per-run mapping state.
class NodeMapper {
 public:
  NodeMapper(const SopNetwork& sop, const CellLibrary& lib, Netlist& nl,
             const MapperOptions& opt)
      : sop_(sop), lib_(lib), nl_(nl), opt_(opt),
        net_of_(sop.num_signals(), kInvalidNet) {
    arity_ = kMaxTreeArity;
    for (CellKind k : {CellKind::kAnd, CellKind::kOr}) {
      arity_ = std::min(arity_, lib_.max_arity(k));
    }
    ODCFP_CHECK_MSG(arity_ >= 2, "library lacks 2-input AND/OR cells");
  }

  void run() {
    for (SignalId pi : sop_.inputs()) {
      net_of_[pi] = nl_.add_input(sop_.signal_name(pi));
    }
    for (SignalId sig : sop_.topo_order()) {
      if (sop_.is_input(sig)) continue;
      net_of_[sig] = map_node(sig);
    }
    for (SignalId out : sop_.outputs()) {
      ODCFP_CHECK_MSG(net_of_[out] != kInvalidNet,
                      "output '" << sop_.signal_name(out) << "' unmapped");
      nl_.add_output(net_of_[out], sop_.signal_name(out));
    }
  }

 private:
  NetId constant_net(bool value) {
    NetId& cache = value ? const1_ : const0_;
    if (cache == kInvalidNet) {
      const CellId c = lib_.find_kind(
          value ? CellKind::kConst1 : CellKind::kConst0, 0);
      ODCFP_CHECK(c != kInvalidCell);
      cache = nl_.gate(nl_.add_gate(c, {})).output;
    }
    return cache;
  }

  NetId inverted(NetId n) {
    auto it = inv_cache_.find(n);
    if (it != inv_cache_.end()) return it->second;
    const GateId g = nl_.add_gate_kind(CellKind::kInv, {n});
    const NetId out = nl_.gate(g).output;
    inv_cache_.emplace(n, out);
    return out;
  }

  /// Balanced tree of `kind` gates over the leaves.
  NetId build_tree(CellKind kind, std::vector<NetId> leaves) {
    ODCFP_CHECK(!leaves.empty());
    while (leaves.size() > 1) {
      std::vector<NetId> next;
      for (std::size_t i = 0; i < leaves.size();) {
        const std::size_t take = std::min<std::size_t>(
            static_cast<std::size_t>(arity_), leaves.size() - i);
        if (take == 1) {
          next.push_back(leaves[i]);
          ++i;
          continue;
        }
        std::vector<NetId> group(leaves.begin() + static_cast<long>(i),
                                 leaves.begin() + static_cast<long>(i + take));
        const GateId g = nl_.add_gate_kind(kind, group);
        next.push_back(nl_.gate(g).output);
        i += take;
      }
      leaves = std::move(next);
    }
    return leaves[0];
  }

  NetId build_xor_tree(std::vector<NetId> leaves, bool negate) {
    ODCFP_CHECK(!leaves.empty());
    while (leaves.size() > 1) {
      std::vector<NetId> next;
      for (std::size_t i = 0; i + 1 < leaves.size(); i += 2) {
        const bool last_pair = (leaves.size() == 2);
        const CellKind kind = (last_pair && negate) ? CellKind::kXnor
                                                    : CellKind::kXor;
        const GateId g = nl_.add_gate_kind(kind, {leaves[i], leaves[i + 1]});
        next.push_back(nl_.gate(g).output);
        if (last_pair) negate = false;
      }
      if (leaves.size() % 2 == 1) next.push_back(leaves.back());
      leaves = std::move(next);
    }
    if (negate) return inverted(leaves[0]);
    return leaves[0];
  }

  /// Truth table of a node over its fanins; only valid for <= 6 fanins.
  TruthTable node_tt(const SopNode& nd) const {
    const int k = static_cast<int>(nd.fanins.size());
    TruthTable tt(k, 0);
    for (unsigned p = 0; p < tt.num_rows(); ++p) {
      bool any = false;
      for (const SopCube& cube : nd.cubes) {
        bool match = true;
        for (int i = 0; i < k && match; ++i) {
          const bool v = (p >> i) & 1;
          if (cube.lits[static_cast<std::size_t>(i)] == CubeLit::kPos) {
            match = v;
          } else if (cube.lits[static_cast<std::size_t>(i)] ==
                     CubeLit::kNeg) {
            match = !v;
          }
        }
        if (match) { any = true; break; }
      }
      if (any != nd.complemented) tt = TruthTable(k, tt.bits() | (1ull << p));
    }
    return tt;
  }

  /// Cube -> net of the AND of its literals; kInvalidNet if the cube is
  /// contradictory (x & x'), constant_net(1) if it has no literals.
  NetId map_cube(const SopNode& nd, const SopCube& cube) {
    std::vector<NetId> lits;
    for (std::size_t i = 0; i < nd.fanins.size(); ++i) {
      const NetId in = net_of_[nd.fanins[i]];
      ODCFP_CHECK(in != kInvalidNet);
      if (cube.lits[i] == CubeLit::kDontCare) continue;
      const NetId lit =
          (cube.lits[i] == CubeLit::kPos) ? in : inverted(in);
      if (std::find(lits.begin(), lits.end(), lit) == lits.end()) {
        lits.push_back(lit);
      }
    }
    // Detect x & x' (same fanin appearing in both polarities).
    for (std::size_t i = 0; i < nd.fanins.size(); ++i) {
      for (std::size_t j = i + 1; j < nd.fanins.size(); ++j) {
        if (nd.fanins[i] == nd.fanins[j] &&
            cube.lits[i] != CubeLit::kDontCare &&
            cube.lits[j] != CubeLit::kDontCare &&
            cube.lits[i] != cube.lits[j]) {
          return kInvalidNet;
        }
      }
    }
    if (lits.empty()) return constant_net(true);
    return build_tree(CellKind::kAnd, std::move(lits));
  }

  NetId map_node(SignalId sig) {
    const SopNode& nd = sop_.node(sig);
    const int k = static_cast<int>(nd.fanins.size());

    // Constants.
    if (nd.cubes.empty()) return constant_net(nd.complemented);

    // Small nodes: exact function handling.
    if (k <= TruthTable::kMaxInputs) {
      const TruthTable tt = node_tt(nd);
      if (tt.is_constant()) return constant_net(tt.constant_value());

      // Reduce away unused fanins? Handled implicitly below by SOP path;
      // here we only special-case single-dependency functions.
      if (k >= 1) {
        int dep = -1;
        int ndeps = 0;
        for (int i = 0; i < k; ++i) {
          if (tt.depends_on(i)) { dep = i; ++ndeps; }
        }
        if (ndeps == 1) {
          const NetId in = net_of_[nd.fanins[static_cast<std::size_t>(dep)]];
          const bool pos = tt.cofactor(dep, true).constant_value();
          return pos ? in : inverted(in);
        }
      }

      if (opt_.detect_xor && k >= 2) {
        if (tt == TruthTable::xor_n(k)) {
          return build_xor_tree(fanin_nets(nd), /*negate=*/false);
        }
        if (tt == TruthTable::xor_n(k, /*negate_output=*/true)) {
          return build_xor_tree(fanin_nets(nd), /*negate=*/true);
        }
      }

      // Direct library match (pin order as given).
      const CellId direct = lib_.find_function(tt);
      if (direct != kInvalidCell &&
          lib_.cell(direct).num_inputs() == k) {
        const GateId g = nl_.add_gate(direct, fanin_nets(nd));
        return nl_.gate(g).output;
      }

      // Small node: decompose the minimized (ISOP) cover instead of the
      // raw cubes — this is the mapper's SOP-minimization quality lever.
      std::vector<NetId> isop_cube_nets;
      for (const IsopCube& cube : isop_cover(tt)) {
        std::vector<NetId> lits;
        for (int i = 0; i < k; ++i) {
          if (!(cube.mask & (1u << i))) continue;
          const NetId in = net_of_[nd.fanins[static_cast<std::size_t>(i)]];
          const NetId lit =
              (cube.values & (1u << i)) ? in : inverted(in);
          if (std::find(lits.begin(), lits.end(), lit) == lits.end()) {
            lits.push_back(lit);
          }
        }
        const NetId cn = lits.empty()
                             ? constant_net(true)
                             : build_tree(CellKind::kAnd, std::move(lits));
        if (std::find(isop_cube_nets.begin(), isop_cube_nets.end(), cn) ==
            isop_cube_nets.end()) {
          isop_cube_nets.push_back(cn);
        }
      }
      if (isop_cube_nets.empty()) return constant_net(false);
      return build_tree(CellKind::kOr, std::move(isop_cube_nets));
    }

    // General SOP decomposition: OR of cube-ANDs.
    std::vector<NetId> cube_nets;
    for (const SopCube& cube : nd.cubes) {
      const NetId cn = map_cube(nd, cube);
      if (cn == kInvalidNet) continue;  // contradictory cube == 0
      if (std::find(cube_nets.begin(), cube_nets.end(), cn) ==
          cube_nets.end()) {
        cube_nets.push_back(cn);
      }
    }
    NetId result = cube_nets.empty()
                       ? constant_net(false)
                       : build_tree(CellKind::kOr, std::move(cube_nets));
    if (nd.complemented) result = inverted(result);
    return result;
  }

  std::vector<NetId> fanin_nets(const SopNode& nd) const {
    std::vector<NetId> nets;
    nets.reserve(nd.fanins.size());
    for (SignalId s : nd.fanins) {
      ODCFP_CHECK(net_of_[s] != kInvalidNet);
      nets.push_back(net_of_[s]);
    }
    return nets;
  }

  const SopNetwork& sop_;
  const CellLibrary& lib_;
  Netlist& nl_;
  const MapperOptions& opt_;
  std::vector<NetId> net_of_;
  std::unordered_map<NetId, NetId> inv_cache_;
  NetId const0_ = kInvalidNet;
  NetId const1_ = kInvalidNet;
  int arity_ = 2;
};

}  // namespace

std::size_t strash(Netlist& nl) {
  const bool symmetric[] = {false, false, false, false, true, true,
                            true,  true,  true,  true,  false, false,
                            false};
  std::unordered_map<std::string, NetId> seen;
  std::size_t merged = 0;
  for (GateId g : nl.topo_order()) {
    const Gate& gt = nl.gate(g);
    PinList<NetId> fanins = gt.fanins;
    const auto kind_index =
        static_cast<std::size_t>(nl.cell_of(g).kind);
    if (kind_index < std::size(symmetric) && symmetric[kind_index]) {
      std::sort(fanins.begin(), fanins.end());
    }
    std::string key = std::to_string(gt.cell);
    for (NetId in : fanins) {
      key += ',';
      key += std::to_string(in);
    }
    auto [it, inserted] = seen.emplace(std::move(key), gt.output);
    if (!inserted) {
      nl.transfer_fanouts(gt.output, it->second);
      nl.remove_gate(g);
      ++merged;
    }
  }
  return merged;
}

Netlist map_to_cells(const SopNetwork& sop, const CellLibrary& lib,
                     const MapperOptions& options) {
  Netlist nl(&lib, sop.name());
  NodeMapper mapper(sop, lib, nl, options);
  mapper.run();
  strash(nl);
  if (options.nand_nor_fraction > 0) {
    diversify_gates(nl, options.nand_nor_fraction, options.seed);
  }
  nl.sweep_dangling();
  nl.validate(/*allow_dangling=*/true);
  return nl;
}

std::size_t diversify_gates(Netlist& nl, double fraction,
                            std::uint64_t seed) {
  Rng rng(seed);
  std::size_t rewritten = 0;
  const CellLibrary& lib = nl.library();
  const std::size_t snapshot = nl.num_gates();
  for (GateId g = 0; g < snapshot; ++g) {
    if (nl.gate(g).is_dead()) continue;
    const CellKind kind = nl.cell_of(g).kind;
    if (kind != CellKind::kAnd && kind != CellKind::kOr) continue;
    if (!rng.next_bool(fraction)) continue;

    const int k = nl.cell_of(g).num_inputs();
    // A copy: the gates added below may move the gate's pins.
    const PinList<NetId> fanins = nl.gate(g).fanins;
    const NetId out = nl.gate(g).output;
    const bool demorgan_style = (k == 2) && rng.next_bool(0.4);

    if (demorgan_style) {
      // AND(a,b) -> NOR(a', b');  OR(a,b) -> NAND(a', b').
      const CellKind target = (kind == CellKind::kAnd) ? CellKind::kNor
                                                       : CellKind::kNand;
      const CellId cell = lib.find_kind(target, 2);
      if (cell == kInvalidCell) continue;
      const GateId ia = nl.add_gate_kind(CellKind::kInv, {fanins[0]});
      const GateId ib = nl.add_gate_kind(CellKind::kInv, {fanins[1]});
      nl.rewire_gate(g, cell,
                     {nl.gate(ia).output, nl.gate(ib).output});
    } else {
      // AND -> NAND + INV;  OR -> NOR + INV.
      const CellKind target = (kind == CellKind::kAnd) ? CellKind::kNand
                                                       : CellKind::kNor;
      const CellId cell = lib.find_kind(target, k);
      if (cell == kInvalidCell) continue;
      nl.rewire_gate(g, cell, fanins);
      const GateId inv = nl.add_gate_kind(CellKind::kInv, {out});
      nl.transfer_fanouts_except(out, nl.gate(inv).output, inv);
    }
    ++rewritten;
  }
  merge_inverters(nl);
  nl.sweep_dangling();
  return rewritten;
}

std::size_t merge_inverters(Netlist& nl) {
  std::size_t removed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    // Collapse INV(INV(x)) -> x.
    for (GateId g = 0; g < nl.num_gates(); ++g) {
      if (nl.gate(g).is_dead() || nl.cell_of(g).kind != CellKind::kInv) {
        continue;
      }
      const NetId in = nl.gate(g).fanins[0];
      const GateId d = nl.net(in).driver;
      if (d == kInvalidGate || nl.cell_of(d).kind != CellKind::kInv) {
        continue;
      }
      const NetId orig = nl.gate(d).fanins[0];
      const NetId out = nl.gate(g).output;
      if (orig == out) continue;  // defensive; would be a cycle
      nl.transfer_fanouts(out, orig);
      nl.remove_gate(g);
      ++removed;
      changed = true;
    }
    // Share parallel inverters on the same net.
    std::unordered_map<NetId, GateId> first_inv;
    for (GateId g = 0; g < nl.num_gates(); ++g) {
      if (nl.gate(g).is_dead() || nl.cell_of(g).kind != CellKind::kInv) {
        continue;
      }
      const NetId in = nl.gate(g).fanins[0];
      auto [it, inserted] = first_inv.emplace(in, g);
      if (!inserted) {
        nl.transfer_fanouts(nl.gate(g).output, nl.gate(it->second).output);
        nl.remove_gate(g);
        ++removed;
        changed = true;
      }
    }
  }
  return removed;
}

}  // namespace odcfp
