// SDC-based circuit fingerprinting — the authors' companion technique
// (Dunbar & Qu, "Satisfiability Don't Care Condition Based Circuit
// Fingerprinting Techniques", ASP-DAC 2015; cited as ref. [9] and as the
// model for this paper's approach).
//
// Where the ODC method hides changes behind unobservable outputs, the SDC
// method hides them under unreachable inputs: if some input patterns of a
// gate can never occur (proven by the exact window-SDC analysis in
// src/odc/window.hpp), the gate's cell may be swapped for any other cell
// of the same arity whose function differs *only on impossible patterns*.
// The swap is a one-cell layout change — even more "minute" than the ODC
// modification (no wires move at all) — and each location with k
// interchangeable alternatives carries log2(1+k) bits.
//
// With the default library the interchangeable pairs include
// AND2<->XNOR2 (pattern 00 unreachable), NAND2<->XOR2 (00 unreachable),
// OR2<->XOR2 and NOR2<->XNOR2 (11 unreachable), and the wider families
// where a forcing side input is correlated.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace odcfp {

struct SdcLocation {
  GateId gate = kInvalidGate;
  /// Bit p set = gate-input pattern p is provably unreachable.
  std::uint64_t impossible_mask = 0;
  /// Cells interchangeable with the current one under that mask (the
  /// current cell itself is not listed).
  std::vector<CellId> alternatives;

  double capacity_bits() const;
};

/// Scans all gates except ODC fingerprint gates (fp_*), computes their
/// window SDCs under the default WindowOptions, and returns the gates
/// with at least one alternative cell.
std::vector<SdcLocation> find_sdc_locations(const Netlist& nl);

double total_sdc_capacity_bits(const std::vector<SdcLocation>& locs);

/// Applies/removes/extracts cell-swap fingerprints. code[i] in
/// [0, 1 + alternatives(i)): 0 keeps the original cell.
class SdcEmbedder {
 public:
  SdcEmbedder(Netlist& nl, std::vector<SdcLocation> locations);

  const std::vector<SdcLocation>& locations() const { return locations_; }

  void apply(std::size_t loc, int option);  // 1-based option
  void remove(std::size_t loc);
  int applied_option(std::size_t loc) const;
  void apply_code(const std::vector<std::uint8_t>& code);
  std::vector<std::uint8_t> current_code() const;

 private:
  Netlist* nl_;
  std::vector<SdcLocation> locations_;
  std::vector<CellId> original_cell_;
  std::vector<int> state_;
};

/// Recovers the code from a fingerprinted copy (gates matched by name).
std::vector<std::uint8_t> extract_sdc_code(
    const Netlist& fingerprinted, const Netlist& golden,
    const std::vector<SdcLocation>& locs);

}  // namespace odcfp
