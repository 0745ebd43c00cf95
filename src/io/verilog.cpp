#include "io/verilog.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/atomic_io.hpp"
#include "common/check.hpp"
#include "netlist/name_table.hpp"

namespace odcfp {

namespace {

// Byte classes, shared by the writer's escaping test and the reader's
// lexer.
enum : std::uint8_t {
  kSpace = 1 << 0,    ///< Whitespace (isspace in the C locale).
  kPunct = 1 << 1,    ///< A one-byte token: ( ) ; , = . or NUL.
  kEndsWord = 1 << 2, ///< Ends an unescaped word: space, punct or '\'.
  kIdStart = 1 << 3,  ///< May start a plain identifier: a letter or '_'.
  kIdChar = 1 << 4,   ///< May continue one: a letter, digit, '_' or '$'.
};

constexpr std::array<std::uint8_t, 256> make_byte_classes() {
  std::array<std::uint8_t, 256> t{};
  for (const char c : std::string_view(" \t\n\v\f\r")) {
    t[static_cast<unsigned char>(c)] |= kSpace | kEndsWord;
  }
  for (const char c : std::string_view("();,=.\0", 7)) {
    t[static_cast<unsigned char>(c)] |= kPunct | kEndsWord;
  }
  t['\\'] |= kEndsWord;
  for (int c = 0; c < 26; ++c) {
    t['a' + c] |= kIdStart | kIdChar;
    t['A' + c] |= kIdStart | kIdChar;
  }
  for (int c = '0'; c <= '9'; ++c) t[c] |= kIdChar;
  t['_'] |= kIdStart | kIdChar;
  t['$'] |= kIdChar;
  return t;
}

constexpr std::array<std::uint8_t, 256> kByteClass = make_byte_classes();

bool is(char c, std::uint8_t classes) {
  return (kByteClass[static_cast<unsigned char>(c)] & classes) != 0;
}

/// The words the reader gives meaning to; a name spelling one is escaped.
bool is_keyword(std::string_view s) {
  for (const std::string_view k :
       {"module", "endmodule", "input", "output", "wire", "assign"}) {
    if (s == k) return true;
  }
  return false;
}

bool is_plain_identifier(std::string_view s) {
  if (s.empty() || !is(s[0], kIdStart) || is_keyword(s)) return false;
  return std::all_of(s.begin(), s.end(),
                     [](char c) { return is(c, kIdChar); });
}

/// Appends `name`, escaped (\name followed by a space) unless it is a
/// plain identifier that is no keyword.
void append_id(std::string& out, std::string_view name) {
  if (is_plain_identifier(name)) {
    out += name;
    return;
  }
  out += '\\';
  out += name;
  out += ' ';
}

}  // namespace

std::string to_verilog_string(const Netlist& nl) {
  const std::vector<GateId> order = nl.topo_order();
  // A net named like an output port is declared by that port, not as a
  // wire.
  std::vector<bool> named_by_port(nl.num_nets(), false);
  for (const OutputPort& po : nl.outputs()) {
    const NetId n = nl.find_net(po.name);
    if (n != kInvalidNet) named_by_port[n] = true;
  }

  std::string out;
  out.reserve(128 + 24 * (nl.inputs().size() + nl.outputs().size()) +
              96 * order.size());
  out += "// ODC-fingerprinting structural netlist\nmodule ";
  append_id(out, nl.name());
  out += " (";
  const char* sep = "";
  for (NetId pi : nl.inputs()) {
    out += sep;
    append_id(out, nl.net(pi).name);
    sep = ", ";
  }
  for (const OutputPort& po : nl.outputs()) {
    out += sep;
    append_id(out, po.name);
    sep = ", ";
  }
  out += ");\n";

  for (NetId pi : nl.inputs()) {
    out += "  input ";
    append_id(out, nl.net(pi).name);
    out += ";\n";
  }
  for (const OutputPort& po : nl.outputs()) {
    out += "  output ";
    append_id(out, po.name);
    out += ";\n";
  }
  for (GateId g : order) {
    const NetId n = nl.gate(g).output;
    if (named_by_port[n]) continue;
    out += "  wire ";
    append_id(out, nl.net(n).name);
    out += ";\n";
  }
  // Aliases for output ports whose name differs from the driving net.
  for (const OutputPort& po : nl.outputs()) {
    const std::string& net_name = nl.net(po.net).name;
    if (po.name == net_name) continue;
    out += "  assign ";
    append_id(out, po.name);
    out += " = ";
    append_id(out, net_name);
    out += ";\n";
  }

  for (GateId g : order) {
    const Gate& gt = nl.gate(g);
    out += "  ";
    out += nl.library().cell(gt.cell).name;
    out += ' ';
    append_id(out, gt.name);
    out += " (";
    char pin = 'A';
    for (NetId in : gt.fanins) {
      out += '.';
      out += pin++;
      out += '(';
      append_id(out, nl.net(in).name);
      out += "), ";
    }
    out += ".Y(";
    append_id(out, nl.net(gt.output).name);
    out += "));\n";
  }
  out += "endmodule\n";
  return out;
}

void write_verilog_file(const std::string& path, const Netlist& nl) {
  // Atomic publish (temp + rename): a killed export never leaves a
  // truncated netlist at the final path for a downstream tool to read.
  const atomic_io::WriteResult written =
      atomic_io::write_file_atomic(path, to_verilog_string(nl));
  ODCFP_CHECK_MSG(written.ok,
                  "cannot write '" << path << "': " << written.error);
}

namespace {

/// One token, a view into the caller's text.
struct Token {
  std::string_view text;
  /// An escaped identifier: its text is a name, never punctuation or a
  /// keyword, whatever it spells.
  bool escaped = false;

  bool is(std::string_view word) const { return !escaped && text == word; }
  bool empty() const { return text.empty(); }
};

/// Tokens over the caller's text.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  /// The next token; empty at end of input. ( ) ; , = . and NUL are
  /// one-byte tokens. An escaped identifier (\ up to the next whitespace)
  /// comes back without its backslash.
  Token next() {
    skip_space_and_comments();
    const std::size_t start = pos_;
    if (start >= text_.size()) return {};
    if (text_[start] == '\\') {
      ++pos_;
      while (pos_ < text_.size() && !is(text_[pos_], kSpace)) ++pos_;
      ODCFP_CHECK_MSG(pos_ > start + 1, "empty escaped identifier");
      return {text_.substr(start + 1, pos_ - start - 1), true};
    }
    if (is(text_[start], kPunct)) return {text_.substr(pos_++, 1)};
    while (pos_ < text_.size() && !is(text_[pos_], kEndsWord)) ++pos_;
    return {text_.substr(start, pos_ - start)};
  }

 private:
  void skip_space_and_comments() {
    for (;;) {
      while (pos_ < text_.size() && is(text_[pos_], kSpace)) ++pos_;
      if (pos_ + 1 >= text_.size() || text_[pos_] != '/') return;
      std::size_t end;
      if (text_[pos_ + 1] == '/') {
        end = text_.find('\n', pos_);
      } else if (text_[pos_ + 1] == '*') {
        end = text_.find("*/", pos_ + 2);
        if (end != std::string_view::npos) end += 2;
      } else {
        return;
      }
      pos_ = std::min(end, text_.size());
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

constexpr std::uint32_t kNoId = ~std::uint32_t{0};

/// One `.pin(net)` connection; `net` is an id into ParsedModule::names.
struct PinConn {
  std::string_view pin;
  std::uint32_t net;
};

struct ParsedInstance {
  std::string_view cell;
  std::string_view name;
  std::uint32_t first_pin;  ///< Its pins are pins[first_pin, end_pin).
  std::uint32_t end_pin;
};

/// A module as written, with every net name interned to a dense id.
struct ParsedModule {
  std::string_view name;
  std::vector<std::string_view> names;  ///< Net name of each id.
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> assigns;  // lhs = rhs
  std::vector<ParsedInstance> instances;
  std::vector<PinConn> pins;
};

/// Instances with more pins than this check pin names for duplicates in a
/// hash set instead of by scanning.
constexpr std::size_t kScannedPins = 16;

ParsedModule parse_module(std::string_view text) {
  Lexer lex(text);
  auto expect = [&lex](std::string_view want) {
    const Token got = lex.next();
    ODCFP_CHECK_MSG(got.is(want),
                    "expected '" << want << "', got '" << got.text << "'");
  };
  ParsedModule m;
  NameTable ids;  // of m.names
  auto intern = [&](std::string_view name) {
    const auto fresh = static_cast<std::uint32_t>(m.names.size());
    const std::uint32_t id = ids.insert(
        name, fresh, [&m](std::uint32_t i) { return m.names[i]; });
    if (id == fresh) m.names.push_back(name);
    return id;
  };

  Token tok = lex.next();
  ODCFP_CHECK_MSG(tok.is("module"), "expected 'module'");
  m.name = lex.next().text;
  // Skip the port list — directions come from the declarations.
  tok = lex.next();
  if (tok.is("(")) {
    while (!tok.is(")")) {
      tok = lex.next();
      ODCFP_CHECK_MSG(!tok.empty(), "unterminated port list");
    }
    expect(";");
  } else {
    ODCFP_CHECK_MSG(tok.is(";"), "malformed module header");
  }

  std::unordered_set<std::string_view> many_pins;
  for (;;) {
    tok = lex.next();
    ODCFP_CHECK_MSG(!tok.empty(), "unexpected end of file (no endmodule)");
    if (tok.is("endmodule")) break;
    if (tok.is("input") || tok.is("output") || tok.is("wire")) {
      std::vector<std::uint32_t>* list = tok.is("input")    ? &m.inputs
                                         : tok.is("output") ? &m.outputs
                                                            : nullptr;
      for (;;) {
        const Token name = lex.next();
        ODCFP_CHECK_MSG(!name.empty(), "unterminated declaration");
        if (list != nullptr) list->push_back(intern(name.text));
        const Token sep = lex.next();
        if (sep.is(";")) break;
        ODCFP_CHECK_MSG(sep.is(","), "bad declaration separator");
      }
      continue;
    }
    if (tok.is("assign")) {
      const std::string_view lhs = lex.next().text;
      expect("=");
      const std::string_view rhs = lex.next().text;
      expect(";");
      m.assigns.emplace_back(intern(lhs), intern(rhs));
      continue;
    }
    // Cell instance.
    ParsedInstance inst;
    inst.cell = tok.text;
    inst.name = lex.next().text;
    inst.first_pin = static_cast<std::uint32_t>(m.pins.size());
    expect("(");
    for (;;) {
      tok = lex.next();
      if (tok.is(")")) break;
      ODCFP_CHECK_MSG(tok.is("."), "expected '.pin(' in instance '"
                                       << inst.name << "'");
      const std::string_view pin = lex.next().text;
      expect("(");
      const std::string_view net = lex.next().text;
      expect(")");
      const auto first = m.pins.begin() + inst.first_pin;
      const std::size_t have = m.pins.size() - inst.first_pin;
      bool duplicate;
      if (have < kScannedPins) {
        duplicate = std::any_of(first, m.pins.end(), [pin](const PinConn& p) {
          return p.pin == pin;
        });
      } else {
        if (have == kScannedPins) {
          many_pins.clear();
          for (auto p = first; p != m.pins.end(); ++p) many_pins.insert(p->pin);
        }
        duplicate = !many_pins.insert(pin).second;
      }
      ODCFP_CHECK_MSG(!duplicate, "duplicate pin '" << pin
                                                    << "' on instance '"
                                                    << inst.name << "'");
      m.pins.push_back({pin, intern(net)});
      tok = lex.next();
      if (tok.is(")")) break;
      ODCFP_CHECK_MSG(tok.is(","), "bad pin separator");
    }
    expect(";");
    inst.end_pin = static_cast<std::uint32_t>(m.pins.size());
    m.instances.push_back(inst);
  }
  return m;
}

/// Follows `assign` aliases to the net name each name stands for. Each
/// alias is resolved once; a chain that loops resolves to kNoId.
class Aliases {
 public:
  explicit Aliases(const ParsedModule& m)
      : target_(m.names.size(), kNoId), canon_(m.names.size(), kUnseen) {
    for (const auto& [lhs, rhs] : m.assigns) {
      ODCFP_CHECK_MSG(target_[lhs] == kNoId,
                      "net '" << m.names[lhs] << "' assigned twice");
      target_[lhs] = rhs;
    }
  }

  std::uint32_t canonical(std::uint32_t id) {
    std::uint32_t x = id;
    while (target_[x] != kNoId && canon_[x] == kUnseen) {
      canon_[x] = kOnPath;
      path_.push_back(x);
      x = target_[x];
    }
    // x names itself, is resolved already, or closes a loop on the path.
    const std::uint32_t result = target_[x] == kNoId    ? x
                                 : canon_[x] == kOnPath ? kNoId
                                                        : canon_[x];
    for (const std::uint32_t p : path_) canon_[p] = result;
    path_.clear();
    return target_[id] == kNoId ? id : canon_[id];
  }

 private:
  static constexpr std::uint32_t kOnPath = kNoId - 1;
  static constexpr std::uint32_t kUnseen = kNoId - 2;

  std::vector<std::uint32_t> target_;  ///< rhs of `assign id = rhs;`.
  std::vector<std::uint32_t> canon_;   ///< Resolved name, once computed.
  std::vector<std::uint32_t> path_;
};

std::string alias_cycle(std::string_view name) {
  return "assign aliases of net '" + std::string(name) + "' form a cycle";
}

/// Why an instance cannot become a gate. The error is raised when the
/// creation sweep reaches the instance, so of several faults in a text the
/// one met first in creation order is reported.
enum class Fault : std::uint8_t { kNone, kUnknownCell, kMissingPin, kCycle };

/// An instance as the creation sweep sees it.
struct Node {
  CellId cell = kInvalidCell;
  Fault fault = Fault::kNone;
  std::uint32_t fault_at = 0;     ///< Missing pin index, or looping net id.
  std::uint32_t first_fanin = 0;  ///< Its fanins: [first_fanin, end_fanin).
  std::uint32_t end_fanin = 0;
  std::uint32_t pending = 0;      ///< Fanins whose net has no driver yet.
};

}  // namespace

Netlist read_verilog_string(std::string_view text, const CellLibrary& lib) {
  const ParsedModule m = parse_module(text);
  Aliases aliases(m);

  Netlist nl(&lib, std::string(m.name));
  std::vector<NetId> net_of(m.names.size(), kInvalidNet);
  for (const std::uint32_t in : m.inputs) {
    net_of[in] = nl.add_input(std::string(m.names[in]));
  }

  // An instance's fanins are the resolved names of its pins A, B, ... in
  // order, up to its fault if it has one.
  const std::size_t n = m.instances.size();
  std::vector<Node> nodes(n);
  std::vector<std::uint32_t> fanins;
  std::vector<std::uint32_t> first_consumer(m.names.size() + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const ParsedInstance& inst = m.instances[i];
    Node& node = nodes[i];
    node.first_fanin = static_cast<std::uint32_t>(fanins.size());
    node.cell = lib.find(std::string(inst.cell));
    if (node.cell == kInvalidCell) node.fault = Fault::kUnknownCell;
    const int arity =
        node.cell == kInvalidCell ? 0 : lib.cell(node.cell).num_inputs();
    for (int pin = 0; pin < arity; ++pin) {
      const char letter = static_cast<char>('A' + pin);
      const auto conn = std::find_if(
          m.pins.begin() + inst.first_pin, m.pins.begin() + inst.end_pin,
          [letter](const PinConn& p) {
            return p.pin.size() == 1 && p.pin[0] == letter;
          });
      if (conn == m.pins.begin() + inst.end_pin) {
        node.fault = Fault::kMissingPin;
        node.fault_at = static_cast<std::uint32_t>(pin);
        break;
      }
      const std::uint32_t net = aliases.canonical(conn->net);
      if (net == kNoId) {
        node.fault = Fault::kCycle;
        node.fault_at = conn->net;
        break;
      }
      fanins.push_back(net);
      if (net_of[net] == kInvalidNet) {
        ++node.pending;
        ++first_consumer[net + 1];
      }
    }
    node.end_fanin = static_cast<std::uint32_t>(fanins.size());
  }
  // consumers[first_consumer[id] .. first_consumer[id + 1]) lists the
  // instances reading undriven name `id`, once per pin.
  for (std::size_t id = 0; id < m.names.size(); ++id) {
    first_consumer[id + 1] += first_consumer[id];
  }
  std::vector<std::uint32_t> consumers(first_consumer.back());
  {
    std::vector<std::uint32_t> fill(first_consumer.begin(),
                                    first_consumer.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::uint32_t f = nodes[i].first_fanin; f < nodes[i].end_fanin;
           ++f) {
        if (net_of[fanins[f]] == kInvalidNet) {
          consumers[fill[fanins[f]]++] = static_cast<std::uint32_t>(i);
        }
      }
    }
  }

  // Create gates in pass order: an instance is created in the first pass
  // over the text, in text order, that finds all its fanins driven. So an
  // instance whose last driver d was created in pass p joins pass p if it
  // comes after d in the text, and pass p + 1 if before. `current` is a
  // min-heap of the instances ready in this pass; `later` holds the next
  // pass's.
  const auto heap_order = std::greater<std::uint32_t>();
  std::vector<std::uint32_t> current, later;
  for (std::size_t i = 0; i < n; ++i) {
    if (nodes[i].pending == 0) {
      current.push_back(static_cast<std::uint32_t>(i));
    }
  }
  std::make_heap(current.begin(), current.end(), heap_order);
  std::vector<NetId> gate_fanins;
  std::size_t created = 0;
  while (!current.empty()) {
    std::pop_heap(current.begin(), current.end(), heap_order);
    const std::uint32_t i = current.back();
    current.pop_back();
    const ParsedInstance& inst = m.instances[i];
    const Node& node = nodes[i];
    ODCFP_CHECK_MSG(node.fault != Fault::kUnknownCell,
                    "unknown cell '" << inst.cell << "'");
    ODCFP_CHECK_MSG(node.fault != Fault::kMissingPin,
                    "instance '" << inst.name << "' missing pin "
                                 << static_cast<char>('A' + node.fault_at));
    ODCFP_CHECK_MSG(node.fault != Fault::kCycle,
                    alias_cycle(m.names[node.fault_at]));
    const auto y = std::find_if(
        m.pins.begin() + inst.first_pin, m.pins.begin() + inst.end_pin,
        [](const PinConn& p) { return p.pin == "Y"; });
    ODCFP_CHECK_MSG(y != m.pins.begin() + inst.end_pin,
                    "instance '" << inst.name << "' missing pin Y");
    const std::uint32_t out = aliases.canonical(y->net);
    ODCFP_CHECK_MSG(out != kNoId, alias_cycle(m.names[y->net]));
    ODCFP_CHECK_MSG(net_of[out] == kInvalidNet,
                    "net '" << m.names[out] << "' driven twice");
    gate_fanins.clear();
    for (std::uint32_t f = node.first_fanin; f < node.end_fanin; ++f) {
      gate_fanins.push_back(net_of[fanins[f]]);
    }
    const GateId g = nl.add_gate(node.cell, gate_fanins,
                                 std::string(inst.name),
                                 std::string(m.names[out]));
    net_of[out] = nl.gate(g).output;
    ++created;
    for (std::uint32_t c = first_consumer[out]; c < first_consumer[out + 1];
         ++c) {
      const std::uint32_t j = consumers[c];
      if (--nodes[j].pending != 0) continue;
      if (j > i) {
        current.push_back(j);
        std::push_heap(current.begin(), current.end(), heap_order);
      } else {
        later.push_back(j);
      }
    }
    if (current.empty()) {
      std::swap(current, later);
      std::make_heap(current.begin(), current.end(), heap_order);
    }
  }
  ODCFP_CHECK_MSG(created == n, "cyclic or underdriven netlist ("
                                    << (n - created)
                                    << " instances unresolved)");

  for (const std::uint32_t out : m.outputs) {
    const std::uint32_t net = aliases.canonical(out);
    ODCFP_CHECK_MSG(net != kNoId, alias_cycle(m.names[out]));
    ODCFP_CHECK_MSG(net_of[net] != kInvalidNet,
                    "output '" << m.names[out] << "' has no driver");
    nl.add_output(net_of[net], std::string(m.names[out]));
  }
  nl.validate(/*allow_dangling=*/true);
  return nl;
}

Netlist read_verilog_file(const std::string& path, const CellLibrary& lib) {
  std::string text;
  ODCFP_CHECK_MSG(atomic_io::read_file(path, &text),
                  "cannot open '" << path << "'");
  return read_verilog_string(text, lib);
}

}  // namespace odcfp
