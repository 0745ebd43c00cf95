// Technology mapping: SopNetwork -> Netlist over a cell library.
//
// This stands in for the paper's use of Berkeley ABC ("The ABC program can
// map a blif file to a Verilog netlist with the standard gates in the
// library"). The mapper:
//
//  1. matches small nodes (<= 6 fanins) directly against library cells,
//     including parity functions mapped to XOR/XNOR trees;
//  2. decomposes general SOP covers into balanced AND/OR trees with shared
//     input inverters, honoring the library's maximum gate arity;
//  3. optionally runs a seeded diversification pass that rewrites a
//     fraction of AND/OR gates into NAND/NOR + inverter forms (real mapped
//     netlists are NAND/NOR-rich, and the fingerprinting results depend on
//     the gate mix), followed by inverter-pair cleanup.
//
// Every mapping is verified against the source network by the test suite
// (random simulation + SAT CEC).
#pragma once

#include <cstdint>

#include "netlist/netlist.hpp"
#include "synth/sop_network.hpp"

namespace odcfp {

struct MapperOptions {
  /// Fraction of AND/OR gates rewritten into NAND/NOR style by the
  /// diversification pass. 0 disables the pass.
  double nand_nor_fraction = 0.55;

  /// Seed for the (deterministic) diversification choices.
  std::uint64_t seed = 1;

  /// Match parity covers to XOR/XNOR cells.
  bool detect_xor = true;
};

/// Maps `sop` onto `lib`. The result is validated and swept.
Netlist map_to_cells(const SopNetwork& sop, const CellLibrary& lib,
                     const MapperOptions& options = {});

/// The diversification pass, exposed for reuse/ablation: rewrites roughly
/// `fraction` of the AND/OR gates into NAND/NOR+INV form, then merges
/// inverter pairs and shares duplicate inverters. Returns the number of
/// gates rewritten.
std::size_t diversify_gates(Netlist& nl, double fraction, std::uint64_t seed);

/// Cleanup helpers (also used after fingerprint-modification removal):
/// collapses INV(INV(x)) chains and deduplicates parallel inverters on the
/// same net. Returns the number of gates removed.
std::size_t merge_inverters(Netlist& nl);

/// Structural hashing: merges gates with the same cell and the same fanin
/// nets (fanins compared as a set for symmetric cells). Run by the mapper
/// before diversification; mirrors the sharing a real technology mapper
/// produces. Returns the number of gates merged away.
std::size_t strash(Netlist& nl);

}  // namespace odcfp
