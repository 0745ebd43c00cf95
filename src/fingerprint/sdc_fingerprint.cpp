#include "fingerprint/sdc_fingerprint.hpp"

#include <cmath>

#include "common/check.hpp"
#include "odc/window.hpp"

namespace odcfp {

double SdcLocation::capacity_bits() const {
  return std::log2(1.0 + static_cast<double>(alternatives.size()));
}

double total_sdc_capacity_bits(const std::vector<SdcLocation>& locs) {
  double bits = 0;
  for (const SdcLocation& l : locs) bits += l.capacity_bits();
  return bits;
}

std::vector<SdcLocation> find_sdc_locations(const Netlist& nl) {
  std::vector<SdcLocation> result;
  const CellLibrary& lib = nl.library();
  for (GateId g : nl.topo_order()) {
    const Gate& gt = nl.gate(g);
    if (gt.name.rfind("fp_", 0) == 0) continue;
    const Cell& cell = lib.cell(gt.cell);
    const int k = cell.num_inputs();
    if (k < 2 || k > 4) continue;

    const WindowSdcResult sdc = window_sdc(nl, g);
    if (!sdc.computed || sdc.impossible_patterns == 0) continue;

    SdcLocation loc;
    loc.gate = g;
    loc.impossible_mask = sdc.impossible_mask;

    // Alternatives: same-arity cells equal on every reachable pattern,
    // different somewhere on the impossible ones.
    const std::uint64_t tt = cell.function.bits();
    for (CellId c = 0; c < lib.size(); ++c) {
      if (c == gt.cell) continue;
      const Cell& alt = lib.cell(c);
      if (alt.num_inputs() != k) continue;
      const std::uint64_t diff = alt.function.bits() ^ tt;
      if (diff == 0) continue;
      bool ok = true;
      for (unsigned p = 0; p < (1u << k); ++p) {
        if (((diff >> p) & 1) && !((loc.impossible_mask >> p) & 1)) {
          ok = false;
          break;
        }
      }
      if (ok) loc.alternatives.push_back(c);
    }
    if (!loc.alternatives.empty()) result.push_back(std::move(loc));
  }
  return result;
}

SdcEmbedder::SdcEmbedder(Netlist& nl, std::vector<SdcLocation> locations)
    : nl_(&nl), locations_(std::move(locations)) {
  state_.assign(locations_.size(), 0);
  original_cell_.reserve(locations_.size());
  for (const SdcLocation& l : locations_) {
    original_cell_.push_back(nl_->gate(l.gate).cell);
  }
}

void SdcEmbedder::apply(std::size_t loc, int option) {
  ODCFP_CHECK(loc < locations_.size());
  const SdcLocation& L = locations_[loc];
  ODCFP_CHECK_MSG(option >= 1 && option <=
                      static_cast<int>(L.alternatives.size()),
                  "option out of range");
  ODCFP_CHECK_MSG(state_[loc] == 0, "location already modified");
  nl_->rewire_gate(L.gate,
                   L.alternatives[static_cast<std::size_t>(option - 1)],
                   nl_->gate(L.gate).fanins);
  state_[loc] = option;
}

void SdcEmbedder::remove(std::size_t loc) {
  ODCFP_CHECK(loc < locations_.size());
  if (state_[loc] == 0) return;
  nl_->rewire_gate(locations_[loc].gate, original_cell_[loc],
                   nl_->gate(locations_[loc].gate).fanins);
  state_[loc] = 0;
}

int SdcEmbedder::applied_option(std::size_t loc) const {
  ODCFP_CHECK(loc < locations_.size());
  return state_[loc];
}

void SdcEmbedder::apply_code(const std::vector<std::uint8_t>& code) {
  ODCFP_CHECK(code.size() == locations_.size());
  for (std::size_t i = 0; i < code.size(); ++i) {
    remove(i);
    if (code[i] != 0) apply(i, code[i]);
  }
}

std::vector<std::uint8_t> SdcEmbedder::current_code() const {
  std::vector<std::uint8_t> code(locations_.size());
  for (std::size_t i = 0; i < locations_.size(); ++i) {
    code[i] = static_cast<std::uint8_t>(state_[i]);
  }
  return code;
}

std::vector<std::uint8_t> extract_sdc_code(
    const Netlist& fingerprinted, const Netlist& golden,
    const std::vector<SdcLocation>& locs) {
  std::vector<std::uint8_t> code(locs.size(), 0);
  for (std::size_t i = 0; i < locs.size(); ++i) {
    const std::string& name = golden.gate(locs[i].gate).name;
    const GateId g = fingerprinted.find_gate(name);
    ODCFP_CHECK_MSG(g != kInvalidGate,
                    "SDC gate '" << name << "' missing");
    const CellId cell = fingerprinted.gate(g).cell;
    if (cell == golden.gate(locs[i].gate).cell) continue;
    bool matched = false;
    for (std::size_t o = 0; o < locs[i].alternatives.size(); ++o) {
      if (locs[i].alternatives[o] == cell) {
        code[i] = static_cast<std::uint8_t>(o + 1);
        matched = true;
        break;
      }
    }
    ODCFP_CHECK_MSG(matched, "cell at '" << name
                                         << "' matches no alternative");
  }
  return code;
}

}  // namespace odcfp
