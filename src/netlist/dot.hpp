// Graphviz DOT export for netlists — used to visualize fingerprint
// locations and modifications in documentation and debugging.
#pragma once

#include <iosfwd>
#include <string>
#include <unordered_map>

#include "netlist/netlist.hpp"

namespace odcfp {

struct DotOptions {
  /// Extra per-gate attributes, e.g. {"g12", "fillcolor=red,style=filled"}.
  std::unordered_map<std::string, std::string> gate_attributes;
};

/// Writes a `digraph` with one node per PI/PO/gate and one edge per pin.
void write_dot(std::ostream& os, const Netlist& nl,
               const DotOptions& options = {});

std::string to_dot_string(const Netlist& nl, const DotOptions& options = {});

}  // namespace odcfp
