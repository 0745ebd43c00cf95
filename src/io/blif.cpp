#include "io/blif.hpp"

#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/atomic_io.hpp"
#include "common/check.hpp"
#include "common/fault.hpp"

namespace odcfp {

namespace {

/// Splits a line into whitespace-delimited tokens.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> toks;
  std::istringstream is(line);
  std::string t;
  while (is >> t) toks.push_back(t);
  return toks;
}

/// Reads logical lines: strips comments, joins '\' continuations.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is) {}

  bool next(std::string& out) {
    out.clear();
    std::string raw;
    while (std::getline(is_, raw)) {
      ++lineno_;
      const auto hash = raw.find('#');
      if (hash != std::string::npos) raw.erase(hash);
      while (!raw.empty() && (raw.back() == '\r' || raw.back() == ' ' ||
                              raw.back() == '\t')) {
        raw.pop_back();
      }
      if (!raw.empty() && raw.back() == '\\') {
        raw.pop_back();
        out += raw;
        continue;  // continuation
      }
      out += raw;
      if (!out.empty()) return true;
      out.clear();
    }
    return !out.empty();
  }

  int lineno() const { return lineno_; }

 private:
  std::istream& is_;
  int lineno_ = 0;
};

SopNetwork read_blif(std::istream& is) {
  SopNetwork sop;
  LineReader reader(is);
  std::string line;

  // Pending .names block state. Cube rows remember the line they came
  // from so every diagnostic can name its source line.
  struct Row {
    std::string bits;
    int line;
  };
  bool in_names = false;
  int names_line = 0;  // line of the pending .names header
  SignalId target = kInvalidSignal;
  SopNode node;
  std::vector<Row> onset_rows, offset_rows;
  // Where each signal got its defining .names (for redefinition errors).
  std::unordered_map<SignalId, int> defined_at;
  // Where each signal was declared a primary input.
  std::unordered_map<SignalId, int> input_at;

  auto flush_names = [&]() {
    if (!in_names) return;
    ODCFP_CHECK_MSG(onset_rows.empty() || offset_rows.empty(),
                    "mixed on-set/off-set cover for '"
                        << sop.signal_name(target)
                        << "' in .names at line " << names_line);
    const bool use_offset = !offset_rows.empty();
    const auto& rows = use_offset ? offset_rows : onset_rows;
    node.complemented = use_offset;
    for (const Row& row : rows) {
      ODCFP_CHECK_MSG(row.bits.size() == node.fanins.size(),
                      "cube width mismatch for '"
                          << sop.signal_name(target) << "' at line "
                          << row.line << " (expected "
                          << node.fanins.size() << " columns, got "
                          << row.bits.size() << ")");
      SopCube cube;
      for (char c : row.bits) {
        switch (c) {
          case '0': cube.lits.push_back(CubeLit::kNeg); break;
          case '1': cube.lits.push_back(CubeLit::kPos); break;
          case '-': cube.lits.push_back(CubeLit::kDontCare); break;
          default:
            ODCFP_CHECK_MSG(false, "bad cube character '"
                                       << c << "' at line " << row.line);
        }
      }
      node.cubes.push_back(std::move(cube));
    }
    sop.set_node(target, std::move(node));
    defined_at.emplace(target, names_line);
    node = SopNode{};
    onset_rows.clear();
    offset_rows.clear();
    in_names = false;
  };

  bool saw_model = false;
  while (reader.next(line)) {
    ODCFP_FAULT_POINT("io.blif.line");
    const std::vector<std::string> toks = tokenize(line);
    if (toks.empty()) continue;
    const std::string& cmd = toks[0];

    if (cmd[0] == '.') {
      if (cmd != ".names") flush_names();
      if (cmd == ".model") {
        ODCFP_CHECK_MSG(!saw_model, "multiple .model sections at line "
                                        << reader.lineno());
        saw_model = true;
        if (toks.size() > 1) sop.set_name(toks[1]);
      } else if (cmd == ".inputs") {
        for (std::size_t i = 1; i < toks.size(); ++i) {
          const SignalId sig = sop.signal(toks[i]);
          const auto prev = input_at.find(sig);
          ODCFP_CHECK_MSG(prev == input_at.end(),
                          "primary input '"
                              << toks[i] << "' redeclared at line "
                              << reader.lineno()
                              << " (first declared at line "
                              << prev->second << ")");
          const auto def = defined_at.find(sig);
          ODCFP_CHECK_MSG(def == defined_at.end(),
                          "signal '" << toks[i]
                                     << "' declared .inputs at line "
                                     << reader.lineno()
                                     << " but already defined by .names "
                                        "at line "
                                     << def->second);
          input_at.emplace(sig, reader.lineno());
          sop.mark_input(sig);
        }
      } else if (cmd == ".outputs") {
        for (std::size_t i = 1; i < toks.size(); ++i) {
          sop.mark_output(sop.signal(toks[i]));
        }
      } else if (cmd == ".names") {
        flush_names();
        ODCFP_CHECK_MSG(toks.size() >= 2, "empty .names at line "
                                              << reader.lineno());
        in_names = true;
        names_line = reader.lineno();
        target = sop.signal(toks.back());
        const auto prev = defined_at.find(target);
        ODCFP_CHECK_MSG(prev == defined_at.end(),
                        "duplicate .names output '"
                            << toks.back() << "' at line "
                            << reader.lineno()
                            << " (first defined at line " << prev->second
                            << ")");
        const auto pi = input_at.find(target);
        ODCFP_CHECK_MSG(pi == input_at.end(),
                        "primary input '"
                            << toks.back()
                            << "' redefined by .names at line "
                            << reader.lineno() << " (declared .inputs at "
                                                  "line "
                            << pi->second << ")");
        node.fanins.clear();
        for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
          node.fanins.push_back(sop.signal(toks[i]));
        }
      } else if (cmd == ".end") {
        flush_names();
        break;
      } else if (cmd == ".latch") {
        ODCFP_CHECK_MSG(false, "sequential BLIF (.latch) is not "
                               "supported, at line "
                                   << reader.lineno());
      } else {
        // .default_input_arrival and friends: ignore.
      }
      continue;
    }

    // Cube row inside .names.
    ODCFP_CHECK_MSG(in_names, "cube row outside .names at line "
                                  << reader.lineno());
    if (node.fanins.empty()) {
      // Constant: single-column rows ("1" -> const 1, "0" -> const 0).
      ODCFP_CHECK_MSG(toks.size() == 1 && toks[0].size() == 1,
                      "bad constant row at line " << reader.lineno());
      if (toks[0] == "1") {
        onset_rows.push_back({"", reader.lineno()});
      }  // "0" rows for constants add nothing to the on-set.
    } else {
      ODCFP_CHECK_MSG(toks.size() == 2, "bad cube row at line "
                                            << reader.lineno());
      ODCFP_CHECK_MSG(toks[1] == "1" || toks[1] == "0",
                      "bad cube output at line " << reader.lineno());
      if (toks[1] == "1") {
        onset_rows.push_back({toks[0], reader.lineno()});
      } else {
        offset_rows.push_back({toks[0], reader.lineno()});
      }
    }
  }
  flush_names();
  ODCFP_CHECK_MSG(saw_model,
                  "missing .model (input ends at line " << reader.lineno()
                                                        << ")");
  sop.validate();
  return sop;
}

Outcome<SopNetwork> try_read_blif(std::istream& is) {
  try {
    return Outcome<SopNetwork>::success(read_blif(is));
  } catch (const CheckError& e) {
    return Outcome<SopNetwork>::malformed(e.what());
  }
}

}  // namespace

Outcome<SopNetwork> try_read_blif_string(const std::string& text) {
  std::istringstream is(text);
  return try_read_blif(is);
}

Outcome<SopNetwork> try_read_blif_file(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) {
    return Outcome<SopNetwork>::malformed("cannot open '" + path + "'");
  }
  return try_read_blif(is);
}

SopNetwork read_blif_string(const std::string& text) {
  std::istringstream is(text);
  return read_blif(is);
}

void write_blif(std::ostream& os, const SopNetwork& sop) {
  os << ".model " << sop.name() << "\n.inputs";
  for (SignalId pi : sop.inputs()) os << " " << sop.signal_name(pi);
  os << "\n.outputs";
  for (SignalId po : sop.outputs()) os << " " << sop.signal_name(po);
  os << "\n";
  for (SignalId sig : sop.topo_order()) {
    if (sop.is_input(sig)) continue;
    const SopNode& nd = sop.node(sig);
    os << ".names";
    for (SignalId in : nd.fanins) os << " " << sop.signal_name(in);
    os << " " << sop.signal_name(sig) << "\n";
    const char out_char = nd.complemented ? '0' : '1';
    if (nd.cubes.empty()) {
      // Constant-0 cover (or constant-1 when complemented): for the
      // complemented case we must emit something that parses back; use an
      // explicit constant row.
      if (nd.complemented) os << "1\n";
    } else {
      for (const SopCube& cube : nd.cubes) {
        for (CubeLit l : cube.lits) {
          os << (l == CubeLit::kPos ? '1' : l == CubeLit::kNeg ? '0' : '-');
        }
        if (!cube.lits.empty()) os << " ";
        os << out_char << "\n";
      }
    }
  }
  os << ".end\n";
}

namespace {

/// A cell's BLIF on-set cover: one "<bits> 1" row per true minterm, input
/// 0 first. A constant-1 cell is the row "1"; a constant-0 cell has none.
std::string blif_cover(const TruthTable& tt) {
  std::string rows;
  if (tt.num_inputs() == 0) {
    if (tt.is_constant() && tt.constant_value()) rows = "1\n";
    return rows;
  }
  for (unsigned p = 0; p < tt.num_rows(); ++p) {
    if (!tt.eval(p)) continue;
    for (int i = 0; i < tt.num_inputs(); ++i) {
      rows += ((p >> i) & 1) ? '1' : '0';
    }
    rows += " 1\n";
  }
  return rows;
}

}  // namespace

std::string to_blif_string(const Netlist& nl) {
  const std::vector<GateId> order = nl.topo_order();
  const CellLibrary& lib = nl.library();
  // Each cell's cover, formatted on its first use.
  std::vector<std::string> cover(lib.size());
  std::vector<bool> has_cover(lib.size(), false);

  std::string out;
  out.reserve(64 + 16 * (nl.inputs().size() + nl.outputs().size()) +
              64 * order.size());
  out += ".model ";
  out += nl.name();
  out += "\n.inputs";
  for (NetId pi : nl.inputs()) {
    out += ' ';
    out += nl.net(pi).name;
  }
  out += "\n.outputs";
  for (const OutputPort& po : nl.outputs()) {
    out += ' ';
    out += po.name;
  }
  out += '\n';
  // Output ports whose name differs from the net: emit a buffer cover.
  for (const OutputPort& po : nl.outputs()) {
    const std::string& net_name = nl.net(po.net).name;
    if (po.name == net_name) continue;
    out += ".names ";
    out += net_name;
    out += ' ';
    out += po.name;
    out += "\n1 1\n";
  }
  for (GateId g : order) {
    const Gate& gt = nl.gate(g);
    out += ".names";
    for (NetId in : gt.fanins) {
      out += ' ';
      out += nl.net(in).name;
    }
    out += ' ';
    out += nl.net(gt.output).name;
    out += '\n';
    if (!has_cover[gt.cell]) {
      cover[gt.cell] = blif_cover(lib.cell(gt.cell).function);
      has_cover[gt.cell] = true;
    }
    out += cover[gt.cell];
  }
  out += ".end\n";
  return out;
}

void write_blif_file(const std::string& path, const Netlist& nl) {
  const atomic_io::WriteResult written =
      atomic_io::write_file_atomic(path, to_blif_string(nl));
  ODCFP_CHECK_MSG(written.ok,
                  "cannot write '" << path << "': " << written.error);
}

}  // namespace odcfp
