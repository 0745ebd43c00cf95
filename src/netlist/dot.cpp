#include "netlist/dot.hpp"

#include <ostream>
#include <sstream>

namespace odcfp {

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

void write_dot(std::ostream& os, const Netlist& nl,
               const DotOptions& options) {
  os << "digraph " << quoted(nl.name()) << " {\n"
     << "  rankdir=LR;\n"
     << "  node [shape=box, fontname=monospace];\n";

  for (NetId pi : nl.inputs()) {
    os << "  " << quoted("pi_" + nl.net(pi).name)
       << " [label=" << quoted(nl.net(pi).name)
       << ", shape=triangle];\n";
  }
  for (const OutputPort& po : nl.outputs()) {
    os << "  " << quoted("po_" + po.name) << " [label=" << quoted(po.name)
       << ", shape=invtriangle];\n";
  }
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    if (nl.gate(g).is_dead()) continue;
    const Gate& gt = nl.gate(g);
    std::string label = nl.cell_of(g).name + "\\n" + gt.name;
    os << "  " << quoted(gt.name) << " [label=" << quoted(label);
    auto it = options.gate_attributes.find(gt.name);
    if (it != options.gate_attributes.end()) os << ", " << it->second;
    os << "];\n";
  }

  auto source_id = [&nl](NetId n) {
    const GateId d = nl.net(n).driver;
    return d == kInvalidGate ? "pi_" + nl.net(n).name : nl.gate(d).name;
  };

  for (GateId g = 0; g < nl.num_gates(); ++g) {
    if (nl.gate(g).is_dead()) continue;
    for (NetId in : nl.gate(g).fanins) {
      os << "  " << quoted(source_id(in)) << " -> "
         << quoted(nl.gate(g).name) << " [label=" << quoted(nl.net(in).name)
         << ", fontsize=8];\n";
    }
  }
  for (const OutputPort& po : nl.outputs()) {
    os << "  " << quoted(source_id(po.net)) << " -> "
       << quoted("po_" + po.name) << ";\n";
  }
  os << "}\n";
}

std::string to_dot_string(const Netlist& nl, const DotOptions& options) {
  std::ostringstream os;
  write_dot(os, nl, options);
  return os.str();
}

}  // namespace odcfp
