// Observability Don't Care (ODC) analysis.
//
// The paper's Eq. (1) defines the ODC of a function F w.r.t. an input x as
//   ODC_x = (dF/dx)' = (F_x XOR F_x')'
// i.e. the assignments of the remaining inputs under which x cannot be
// observed at the output. This module computes:
//
//  * pin_odc            — the ODC condition itself, per cell pin (Eq. 1);
//  * has_nonzero_odc    — whether a pin has any ODC at all (criterion 3/4
//                         of the paper's Definition 1);
//  * controlling_values — pin values that force the cell output;
//  * trigger_values     — values v of pin x such that x=v makes the output
//                         independent of pin y (Definition 2: x is then an
//                         "ODC trigger signal" for y);
//  * simulated_observability — a Monte-Carlo measure of how often a net's
//                         value is observable at any primary output, used
//                         to cross-check the algebra and for the
//                         window-depth ablation.
#pragma once

#include <cstdint>
#include <vector>

#include "library/cell_library.hpp"
#include "netlist/netlist.hpp"

namespace odcfp {

/// ODC condition of `pin` within cell function `tt` (Eq. 1). The result is
/// a truth table over the same inputs whose value never depends on `pin`:
/// it is 1 exactly on the assignments where the output is insensitive to
/// `pin`.
TruthTable pin_odc(const TruthTable& tt, int pin);

/// True if the pin has a non-empty ODC set (some assignment of the other
/// pins hides this pin). E.g. every pin of AND/OR/NAND/NOR; no pin of
/// XOR/XNOR.
bool has_nonzero_odc(const TruthTable& tt, int pin);

/// Values v in {0,1} of `pin` that force the output to a constant
/// (e.g. 0 for AND, 1 for OR, both none for XOR).
std::vector<int> controlling_values(const TruthTable& tt, int pin);

/// Values v of pin `x_pin` such that the cofactor tt|x=v does not depend on
/// `y_pin`; under x=v, y is unobservable through this cell, so x acts as an
/// ODC trigger signal for y (Definition 2).
std::vector<int> trigger_values(const TruthTable& tt, int x_pin, int y_pin);

/// Monte-Carlo observability of `net`: the fraction of random input
/// patterns under which complementing the net's value changes at least one
/// primary output. 0 means (empirically) never observable; 1 means always.
/// `num_words` 64-pattern words are simulated.
double simulated_observability(const Netlist& nl, NetId net,
                               std::size_t num_words, std::uint64_t seed);

/// Per-gate summary used by the fingerprint location finder.
struct GateOdcInfo {
  /// pins_with_odc[i] == true iff pin i has a non-zero local ODC.
  std::vector<bool> pins_with_odc;
  bool any_odc = false;
};

/// Computes GateOdcInfo for every live gate (indexed by GateId).
std::vector<GateOdcInfo> analyze_gate_odcs(const Netlist& nl);

}  // namespace odcfp
