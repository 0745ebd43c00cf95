#include "fingerprint/embedder.hpp"

#include <algorithm>
#include <array>
#include <string_view>
#include <utility>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/telemetry.hpp"

namespace odcfp {

FingerprintCode blank_code(const std::vector<FingerprintLocation>& locs) {
  FingerprintCode code(locs.size());
  for (std::size_t i = 0; i < locs.size(); ++i) {
    code[i].assign(locs[i].sites.size(), 0);
  }
  return code;
}

SiteGateSet::SiteGateSet(const std::vector<FingerprintLocation>& locs) {
  gates_.reserve(total_sites(locs));
  for (const FingerprintLocation& loc : locs) {
    for (const InjectionSite& s : loc.sites) gates_.push_back(s.gate);
  }
  std::sort(gates_.begin(), gates_.end());
  gates_.erase(std::unique(gates_.begin(), gates_.end()), gates_.end());
}

FingerprintEmbedder::FingerprintEmbedder(
    Netlist& nl, const std::vector<FingerprintLocation>& locations)
    : nl_(&nl), locations_(&locations), site_gates_(locations) {
  loc_offset_.reserve(locations.size());
  sites_.reserve(total_sites(locations));
  for (std::size_t l = 0; l < locations.size(); ++l) {
    loc_offset_.push_back(static_cast<std::uint32_t>(sites_.size()));
    for (std::size_t s = 0; s < locations[l].sites.size(); ++s) {
      sites_.emplace_back().ref = {l, s};
    }
  }
#ifndef NDEBUG
  pristine_signature_ = structural_signature(*nl_);
#endif
}

std::size_t FingerprintEmbedder::index_of(std::size_t loc,
                                          std::size_t site) const {
  ODCFP_CHECK(loc < loc_offset_.size());
  const std::size_t i = loc_offset_[loc] + site;
  ODCFP_CHECK(i < sites_.size() && sites_[i].ref.loc == loc &&
              sites_[i].ref.site == site);
  return i;
}

void FingerprintEmbedder::record(SiteState& st, const Op& op) {
  ODCFP_CHECK(st.num_ops < kMaxOps);
  st.ops[st.num_ops++] = op;
}

FingerprintEmbedder::SiteRef FingerprintEmbedder::site_ref(
    std::size_t flat_index) const {
  ODCFP_CHECK(flat_index < sites_.size());
  return sites_[flat_index].ref;
}

int FingerprintEmbedder::applied_option(std::size_t loc,
                                        std::size_t site) const {
  return sites_[index_of(loc, site)].option;
}

NetId find_reusable_inverter(const Netlist& nl, NetId source,
                             const SiteGateSet& site_gates) {
  // A pre-existing inverter on the source net can serve as the
  // complemented literal for free — exactly what a designer would wire in
  // layout. Fingerprint-added inverters (fp_ prefix) and gates that are
  // themselves injection sites (their cell may change) are not shared so
  // that extraction can predict the reuse from the golden netlist alone.
  for (const FanoutRef& ref : nl.net(source).fanouts) {
    if (site_gates.contains(ref.gate)) continue;
    const Gate& g = nl.gate(ref.gate);
    if (g.is_dead()) continue;
    if (nl.cell_of(ref.gate).kind != CellKind::kInv) continue;
    if (g.name.rfind("fp_", 0) == 0) continue;
    return g.output;
  }
  return kInvalidNet;
}

NetId FingerprintEmbedder::literal_net(NetId source, bool invert,
                                       SiteState& st) {
  if (!invert) return source;
  const NetId reusable =
      find_reusable_inverter(*nl_, source, site_gates_);
  if (reusable != kInvalidNet) return reusable;
  const GateId inv = nl_->add_gate_kind(
      CellKind::kInv, {source}, nl_->fresh_gate_name(kInverterPrefix));
  record(st, {.kind = Op::Kind::kAddGate, .gate = inv});
  return nl_->gate(inv).output;
}

namespace {

/// Cell kind used when widening a site gate by one input.
CellKind widen_target_kind(CellKind current) {
  switch (current) {
    case CellKind::kInv:  return CellKind::kNand;  // INV(a) == NAND2(a, 1)
    case CellKind::kBuf:  return CellKind::kAnd;   // BUF(a) == AND2(a, 1)
    default:              return current;
  }
}

CellKind append_kind(InjectClass cls) {
  switch (cls) {
    case InjectClass::kAndLike: return CellKind::kAnd;
    case InjectClass::kOrLike:  return CellKind::kOr;
    case InjectClass::kXorLike: return CellKind::kXor;
  }
  ODCFP_CHECK_MSG(false, "bad inject class");
}

}  // namespace

void FingerprintEmbedder::inject_literal(GateId site_gate, InjectClass cls,
                                         NetId lit, SiteState& st) {
  const Cell& cur = nl_->cell_of(site_gate);
  const CellKind target = widen_target_kind(cur.kind);
  const CellId wide =
      nl_->library().find_kind(target, cur.num_inputs() + 1);
  if (wide != kInvalidCell &&
      (cur.kind == target || cur.num_inputs() == 1)) {
    // Widen the gate in place: the literal is appended as the last pin.
    // The undo drops exactly that pin and keeps whatever nets are on the
    // original pins at undo time — another location's append may have
    // legitimately re-routed one of them in the meantime, and restoring a
    // stale snapshot would resurrect dangling fingerprint nets.
    const CellId old_cell = nl_->gate(site_gate).cell;
    PinList<NetId> fanins = nl_->gate(site_gate).fanins;
    fanins.push_back(lit);
    record(st, {.kind = Op::Kind::kWiden,
                .gate = site_gate,
                .old_cell = old_cell});
    nl_->rewire_gate(site_gate, wide, fanins);
    return;
  }
  // Append a 2-input identity-class gate at the end of the chain.
  const NetId tail = chain_output(site_gate);
  const GateId app = nl_->add_gate_kind(
      append_kind(cls), {tail, lit}, nl_->fresh_gate_name(kAddedGatePrefix));
  const NetId app_out = nl_->gate(app).output;
  record(st, {.kind = Op::Kind::kAddGate, .gate = app});
  nl_->transfer_fanouts_except(tail, app_out, app);
  record(st, {.kind = Op::Kind::kTransfer, .from = tail, .to = app_out});
}

NetId FingerprintEmbedder::chain_output(GateId site_gate) const {
  NetId n = nl_->gate(site_gate).output;
  for (;;) {
    const Net& net = nl_->net(n);
    if (net.fanouts.size() != 1) return n;
    const GateId g = net.fanouts[0].gate;
    const std::string& gname = nl_->gate(g).name;
    if (gname.rfind(kAddedGatePrefix, 0) != 0 ||
        nl_->gate(g).fanins[0] != n) {
      return n;
    }
    n = nl_->gate(g).output;
  }
}

void FingerprintEmbedder::apply(std::size_t loc, std::size_t site,
                                int option) {
  SiteState& st = sites_[index_of(loc, site)];
  const InjectionSite& S = (*locations_)[loc].sites[site];
  ODCFP_CHECK_MSG(option >= 1 &&
                      option <= static_cast<int>(S.options.size()),
                  "option " << option << " out of range");
  ODCFP_CHECK_MSG(st.option == 0, "site already modified");

  const ModOption& O = S.options[static_cast<std::size_t>(option - 1)];
  ODCFP_FAULT_POINT("embedder.apply");
  // Strong exception safety: a failure mid-injection (e.g. an allocation
  // fault inside add_gate) unwinds the ops already recorded, so the
  // netlist is back in its pre-apply state when the exception escapes.
  try {
    const NetId lit1 = literal_net(O.source, O.invert, st);
    inject_literal(S.gate, S.inject_class, lit1, st);
    if (O.source2 != kInvalidNet) {
      const NetId lit2 = literal_net(O.source2, O.invert2, st);
      inject_literal(S.gate, S.inject_class, lit2, st);
    }
  } catch (...) {
    undo_ops(st);
    throw;
  }
  st.option = option;
  ++num_applied_;
  TELEM_COUNT("embed.applies", 1);
}

void FingerprintEmbedder::undo_ops(SiteState& st) {
  for (std::size_t i = st.num_ops; i-- > 0;) {
    const Op& op = st.ops[i];
    switch (op.kind) {
      case Op::Kind::kTransfer:
        nl_->transfer_fanouts(op.to, op.from);
        break;
      case Op::Kind::kAddGate:
        nl_->remove_gate(op.gate);
        break;
      case Op::Kind::kWiden: {
        const PinList<NetId>& fanins = nl_->gate(op.gate).fanins;
        ODCFP_CHECK(!fanins.empty());
        nl_->rewire_gate(op.gate, op.old_cell,
                         std::span(fanins).first(fanins.size() - 1));
        break;
      }
    }
  }
  st.num_ops = 0;
}

void FingerprintEmbedder::remove(std::size_t loc, std::size_t site) {
  SiteState& st = sites_[index_of(loc, site)];
  if (st.option == 0) return;
  undo_ops(st);
  st.option = 0;
  --num_applied_;
  TELEM_COUNT("embed.removes", 1);
}

void FingerprintEmbedder::apply_code(const FingerprintCode& code) {
  ODCFP_CHECK(code.size() == locations_->size());
  remove_all();
  for (std::size_t l = 0; l < code.size(); ++l) {
    ODCFP_CHECK(code[l].size() == (*locations_)[l].sites.size());
    for (std::size_t s = 0; s < code[l].size(); ++s) {
      if (code[l][s] != 0) apply(l, s, code[l][s]);
    }
  }
}

void FingerprintEmbedder::apply_all_generic() {
  for (const SiteState& st : sites_) {
    if (st.option == 0) apply(st.ref.loc, st.ref.site, 1);
  }
}

void FingerprintEmbedder::remove_all() {
  for (const SiteState& st : sites_) remove(st.ref.loc, st.ref.site);
  // Undoing every site must restore the pre-embedding structure exactly
  // (name-wise gate/net compare) — a silent mismatch here would corrupt
  // every later baseline measurement and extraction.
  ODCFP_DCHECK(structural_signature(*nl_) == pristine_signature_);
}

void FingerprintEmbedder::touched_gates(std::size_t loc, std::size_t site,
                                        std::vector<GateId>& gates) const {
  const SiteState& st = sites_[index_of(loc, site)];
  gates.clear();
  if (st.option == 0) return;
  gates.push_back((*locations_)[loc].sites[site].gate);
  for (std::size_t i = 0; i < st.num_ops; ++i) {
    if (st.ops[i].kind == Op::Kind::kAddGate) gates.push_back(st.ops[i].gate);
  }
}

FingerprintCode FingerprintEmbedder::current_code() const {
  FingerprintCode code = blank_code(*locations_);
  for (const SiteState& st : sites_) {
    code[st.ref.loc][st.ref.site] = static_cast<std::uint8_t>(st.option);
  }
  return code;
}

namespace {

/// (source net name, inverted) pair describing one injected literal; the
/// name views a net name of the netlist it was read from.
using LiteralDesc = std::pair<std::string_view, bool>;

/// The literals injected at one site, in sorted order. An option injects
/// one or two, so only two are kept; a site read with more matches no
/// option.
class LiteralSet {
 public:
  void add(LiteralDesc lit) {
    if (count_ < kMax) items_[count_] = lit;
    ++count_;
  }
  bool empty() const { return count_ == 0; }
  void sort() {
    if (count_ == 2 && items_[1] < items_[0]) std::swap(items_[0], items_[1]);
  }
  bool operator==(const LiteralSet& other) const {
    return count_ == other.count_ && count_ <= kMax &&
           std::equal(items_.begin(), items_.begin() + count_,
                      other.items_.begin());
  }

 private:
  static constexpr std::size_t kMax = 2;
  std::array<LiteralDesc, kMax> items_{};
  std::size_t count_ = 0;
};

LiteralDesc decode_literal(const Netlist& fp, NetId lit) {
  const GateId d = fp.net(lit).driver;
  if (d != kInvalidGate &&
      fp.gate(d).name.rfind(kInverterPrefix, 0) == 0) {
    return {fp.net(fp.gate(d).fanins[0]).name, true};
  }
  return {fp.net(lit).name, false};
}

LiteralSet expected_literals(const Netlist& golden, const ModOption& o,
                             const SiteGateSet& site_gates) {
  // Mirrors FingerprintEmbedder::literal_net: an inverted literal reuses a
  // pre-existing inverter when the golden netlist has one.
  auto literal = [&](NetId source, bool invert) -> LiteralDesc {
    if (invert) {
      const NetId reused =
          find_reusable_inverter(golden, source, site_gates);
      if (reused != kInvalidNet) return {golden.net(reused).name, false};
    }
    return {golden.net(source).name, invert};
  };
  LiteralSet lits;
  lits.add(literal(o.source, o.invert));
  if (o.source2 != kInvalidNet) {
    lits.add(literal(o.source2, o.invert2));
  }
  lits.sort();
  return lits;
}

}  // namespace

namespace {

/// Shared extraction core; `strict` throws on unreadable sites instead of
/// recording a damage status, so it leaves `status` empty.
LenientExtraction extract_impl(const Netlist& fingerprinted,
                               const Netlist& golden,
                               const std::vector<FingerprintLocation>& locs,
                               bool strict) {
  LenientExtraction result;
  result.code = blank_code(locs);
  if (!strict) {
    result.status.resize(locs.size());
    for (std::size_t l = 0; l < locs.size(); ++l) {
      result.status[l].assign(locs[l].sites.size(),
                              SiteReadStatus::kRecovered);
    }
  }
  const SiteGateSet site_gates(locs);
  for (std::size_t l = 0; l < locs.size(); ++l) {
    for (std::size_t s = 0; s < locs[l].sites.size(); ++s) {
      const InjectionSite& S = locs[l].sites[s];
      const Gate& gg = golden.gate(S.gate);
      const GateId g2 = fingerprinted.find_gate(gg.name);
      if (g2 == kInvalidGate ||
          fingerprinted.gate(g2).fanins.size() < gg.fanins.size()) {
        ODCFP_CHECK_MSG(!strict, "site gate '"
                                     << gg.name
                                     << "' missing in fingerprinted "
                                        "netlist or lost fanins");
        result.status[l][s] = SiteReadStatus::kSiteMissing;
        ++result.damaged;
        continue;
      }
      LiteralSet literals;

      // Literals added by widening: fanin pins beyond the golden arity.
      const Gate& gf = fingerprinted.gate(g2);
      for (std::size_t i = gg.fanins.size(); i < gf.fanins.size(); ++i) {
        literals.add(decode_literal(fingerprinted, gf.fanins[i]));
      }

      // Literals added by appended gates: follow the chain from the site
      // gate's (name-stable) output net.
      NetId n = gf.output;
      for (;;) {
        const Net& net = fingerprinted.net(n);
        if (net.fanouts.size() != 1) break;
        const GateId a = net.fanouts[0].gate;
        const Gate& ag = fingerprinted.gate(a);
        if (ag.name.rfind(kAddedGatePrefix, 0) != 0 || ag.fanins[0] != n) {
          break;
        }
        literals.add(decode_literal(fingerprinted, ag.fanins[1]));
        n = ag.output;
      }

      if (literals.empty()) {
        ++result.recovered;  // option 0
        continue;
      }
      literals.sort();
      bool matched = false;
      for (std::size_t o = 0; o < S.options.size(); ++o) {
        if (expected_literals(golden, S.options[o], site_gates) ==
            literals) {
          result.code[l][s] = static_cast<std::uint8_t>(o + 1);
          matched = true;
          break;
        }
      }
      if (matched) {
        ++result.recovered;
      } else {
        ODCFP_CHECK_MSG(!strict, "modification at site gate '"
                                     << gg.name
                                     << "' matches no known option");
        result.status[l][s] = SiteReadStatus::kUnknownMod;
        ++result.damaged;
      }
    }
  }
  return result;
}

}  // namespace

FingerprintCode extract_code(const Netlist& fingerprinted,
                             const Netlist& golden,
                             const std::vector<FingerprintLocation>& locs) {
  return extract_impl(fingerprinted, golden, locs, /*strict=*/true).code;
}

LenientExtraction extract_code_lenient(
    const Netlist& fingerprinted, const Netlist& golden,
    const std::vector<FingerprintLocation>& locs) {
  return extract_impl(fingerprinted, golden, locs, /*strict=*/false);
}

}  // namespace odcfp
