#include "fingerprint/fuse_flow.hpp"

#include "common/check.hpp"

namespace odcfp {

namespace {

/// Mirrors FingerprintEmbedder's injection mechanics (widen if the
/// library has a wider same-kind cell, else append an identity-class
/// gate), but with an arbitrary literal net and no undo log.
void inject_net(Netlist& nl, GateId site_gate, InjectClass cls,
                NetId lit) {
  const Cell& cur = nl.cell_of(site_gate);
  CellKind target = cur.kind;
  if (target == CellKind::kInv) target = CellKind::kNand;
  if (target == CellKind::kBuf) target = CellKind::kAnd;
  const CellId wide =
      nl.library().find_kind(target, cur.num_inputs() + 1);
  if (wide != kInvalidCell &&
      (cur.kind == target || cur.num_inputs() == 1)) {
    PinList<NetId> fanins = nl.gate(site_gate).fanins;
    fanins.push_back(lit);
    nl.rewire_gate(site_gate, wide, fanins);
    return;
  }
  const CellKind app_kind = (cls == InjectClass::kAndLike)
                                ? CellKind::kAnd
                                : (cls == InjectClass::kOrLike)
                                      ? CellKind::kOr
                                      : CellKind::kXor;
  const NetId tail = nl.gate(site_gate).output;
  const GateId app = nl.add_gate_kind(app_kind, {tail, lit});
  nl.transfer_fanouts_except(tail, nl.gate(app).output, app);
}

CellId const_cell(const CellLibrary& lib, bool value) {
  const CellId c = lib.find_kind(
      value ? CellKind::kConst1 : CellKind::kConst0, 0);
  ODCFP_CHECK(c != kInvalidCell);
  return c;
}

}  // namespace

FusedMaster build_fused_master(
    const Netlist& golden, const std::vector<FingerprintLocation>& locs) {
  FusedMaster master{golden, {}, {}};
  Netlist& nl = master.netlist;
  std::size_t fuse_index = 0;
  for (const FingerprintLocation& loc : locs) {
    for (const InjectionSite& site : loc.sites) {
      ODCFP_CHECK(!site.options.empty());
      const ModOption& o = site.options[0];  // the generic injection

      NetId lit = o.source;
      if (o.invert) {
        const GateId inv = nl.add_gate_kind(
            CellKind::kInv, {o.source},
            "fuse_inv_" + std::to_string(fuse_index));
        lit = nl.gate(inv).output;
      }

      // Fuse gate: neutralizes the literal while the fuse is intact.
      const bool inactive = (site.inject_class == InjectClass::kAndLike);
      const GateId fuse = nl.add_gate(
          const_cell(nl.library(), inactive), {},
          "fuse_" + std::to_string(fuse_index));
      const CellKind gate_kind = inactive ? CellKind::kOr : CellKind::kAnd;
      const GateId fg = nl.add_gate_kind(
          gate_kind, {lit, nl.gate(fuse).output},
          "fusegate_" + std::to_string(fuse_index));

      inject_net(nl, site.gate, site.inject_class, nl.gate(fg).output);
      master.fuse_gates.push_back(fuse);
      master.inactive_value.push_back(inactive);
      ++fuse_index;
    }
  }
  nl.validate(/*allow_dangling=*/true);
  return master;
}

void program_fuses(FusedMaster& master, const FuseVector& bits) {
  ODCFP_CHECK_MSG(bits.size() == master.num_fuses(),
                  "fuse vector size mismatch");
  Netlist& nl = master.netlist;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const bool value = bits[i] ? !master.inactive_value[i]
                               : master.inactive_value[i];
    const CellId cell = const_cell(nl.library(), value);
    if (nl.gate(master.fuse_gates[i]).cell != cell) {
      nl.rewire_gate(master.fuse_gates[i], cell, {});
    }
  }
}

FuseVector read_fuses(const FusedMaster& master) {
  FuseVector bits(master.num_fuses());
  for (std::size_t i = 0; i < master.num_fuses(); ++i) {
    const bool value = master.netlist.cell_of(master.fuse_gates[i]).kind ==
                       CellKind::kConst1;
    bits[i] = (value != master.inactive_value[i]);
  }
  return bits;
}

FuseVector read_fuses_from_copy(const Netlist& copy,
                                const FusedMaster& master) {
  FuseVector bits(master.num_fuses());
  for (std::size_t i = 0; i < master.num_fuses(); ++i) {
    const std::string& name =
        master.netlist.gate(master.fuse_gates[i]).name;
    const GateId g = copy.find_gate(name);
    ODCFP_CHECK_MSG(g != kInvalidGate,
                    "fuse '" << name << "' missing in copy");
    const bool value = copy.cell_of(g).kind == CellKind::kConst1;
    bits[i] = (value != master.inactive_value[i]);
  }
  return bits;
}

}  // namespace odcfp
