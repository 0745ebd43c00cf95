// Structural Verilog netlist writer and reader.
//
// The paper's circuit modifier consumes and produces Verilog netlists
// ("Input: Circuit in Verilog netlist format / Output: Circuit in Verilog
// netlist format with fingerprints inserted"). This module implements that
// interface for netlists mapped onto a CellLibrary:
//
//   module top (a, b, f);
//     input a; input b;
//     output f;
//     wire n1;
//     NAND2 g1 (.A(a), .B(b), .Y(n1));
//     INV   g2 (.A(n1), .Y(f));
//   endmodule
//
// Cell input pins are named A..F in fanin order; the output pin is Y.
// Identifiers that are not plain Verilog identifiers are written in
// escaped form (\name ). `assign lhs = rhs;` aliases are supported on
// read and used on write when an output port name differs from its net.
//
// The API is string-only. The writer formats a whole module into one
// string. The reader lexes the caller's text in place and takes time
// linear in it (up to a log factor for ordering the instances):
//
//   - Instances may appear in any order. Gates are created in the order a
//     scan of the text, repeated until nothing changes, would create them:
//     an instance's pass is the maximum, over the instances d driving its
//     input pins, of pass(d) + (d comes later in the text ? 1 : 0), and at
//     least 1; gates are created by pass, then by text position. Gate ids
//     break ties in Netlist::topo_order(), so this order fixes the bytes
//     every writer emits for a netlist read back.
//   - `assign` chains are followed to the net they name, each alias once.
//     A chain that loops is a CheckError when a pin, a gate output or an
//     output port needs the net it would name; a loop nothing reads is
//     ignored, like any unused alias.
#pragma once

#include <string>
#include <string_view>

#include "netlist/netlist.hpp"

namespace odcfp {

std::string to_verilog_string(const Netlist& nl);
void write_verilog_file(const std::string& path, const Netlist& nl);

/// Parses a structural Verilog netlist over the cells of `lib`.
/// Throws CheckError on syntax errors, unknown cells, missing or duplicate
/// pins, nets driven twice, cyclic or underdriven netlists, undriven
/// outputs and `assign` cycles.
Netlist read_verilog_string(std::string_view text, const CellLibrary& lib);
Netlist read_verilog_file(const std::string& path, const CellLibrary& lib);

}  // namespace odcfp
