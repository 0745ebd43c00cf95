#include "io/verilog.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <string>
#include <vector>

#include "benchgen/benchmarks.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "equiv/cec.hpp"
#include "io/blif.hpp"

namespace odcfp {
namespace {

// One NAND whose output reaches the port through an `assign`.
const char* const kAliasText = R"(
module top (a, b, y);
  input a; input b;
  output y;
  wire n1;
  NAND2 g1 (.A(a), .B(b), .Y(n1));
  assign y = n1;
endmodule
)";

TEST(VerilogWriter, EmitsParsableModule) {
  Netlist nl(&default_cell_library(), "m");
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const GateId g = nl.add_gate_kind(CellKind::kNand, {a, b}, "u1");
  nl.add_output(nl.gate(g).output, "y");
  const std::string text = to_verilog_string(nl);
  EXPECT_NE(text.find("module m"), std::string::npos);
  EXPECT_NE(text.find("NAND2 u1"), std::string::npos);
  const Netlist back = read_verilog_string(text, nl.library());
  EXPECT_EQ(back.num_live_gates(), 1u);
  EXPECT_EQ(back.inputs().size(), 2u);
  EXPECT_TRUE(verify_equivalence(nl, back).equivalent());
}

TEST(VerilogRoundTrip, PreservesNamesAndFunction) {
  for (const char* name : {"c17", "c432", "c880"}) {
    const Netlist nl = make_benchmark(name);
    const Netlist back =
        read_verilog_string(to_verilog_string(nl), nl.library());
    ASSERT_EQ(back.num_live_gates(), nl.num_live_gates()) << name;
    // Every gate keeps its name and cell.
    for (GateId g = 0; g < nl.num_gates(); ++g) {
      if (nl.gate(g).is_dead()) continue;
      const GateId g2 = back.find_gate(nl.gate(g).name);
      ASSERT_NE(g2, kInvalidGate) << name << " " << nl.gate(g).name;
      EXPECT_EQ(back.gate(g2).cell, nl.gate(g).cell);
    }
    EXPECT_TRUE(random_sim_equal(nl, back, 64, 5)) << name;
  }
}

TEST(VerilogReader, EscapedIdentifiers) {
  Netlist nl(&default_cell_library(), "esc");
  const NetId a = nl.add_input("a[0]");
  const GateId g = nl.add_gate_kind(CellKind::kInv, {a}, "g$1");
  nl.add_output(nl.gate(g).output, "f[0]");
  const std::string text = to_verilog_string(nl);
  EXPECT_NE(text.find("\\a[0] "), std::string::npos);
  const Netlist back = read_verilog_string(text, nl.library());
  EXPECT_NE(back.find_net("a[0]"), kInvalidNet);
  EXPECT_EQ(back.outputs()[0].name, "f[0]");
}

// An escaped identifier is a name whatever it spells: never the
// punctuation or keyword of the same text, and the writer escapes names
// that spell a keyword.
TEST(VerilogReader, EscapedPunctuationAndKeywordsAreNames) {
  const CellLibrary& lib = default_cell_library();
  const Netlist m = read_verilog_string(
      "module m(\\) , y); input \\) ; output y; "
      "INV g(.A(\\) ), .Y(y)); endmodule",
      lib);
  ASSERT_EQ(m.inputs().size(), 1u);
  EXPECT_EQ(m.net(m.inputs()[0]).name, ")");
  EXPECT_EQ(m.num_live_gates(), 1u);

  Netlist nl(&lib, "module");
  const NetId paren = nl.add_input(")");
  const NetId semi = nl.add_input(";");
  const GateId nand = nl.add_gate(lib.find("NAND2"), {paren, semi},
                                  "endmodule", "input");
  const GateId inv =
      nl.add_gate(lib.find("INV"), {nl.gate(nand).output}, "wire", "assign");
  nl.add_output(nl.gate(nand).output, "endmodule");
  nl.add_output(nl.gate(inv).output);
  nl.add_output(semi);
  const std::string text = to_verilog_string(nl);
  EXPECT_NE(text.find("wire \\input ;"), std::string::npos) << text;
  EXPECT_NE(text.find("output \\endmodule ;"), std::string::npos) << text;
  EXPECT_NE(text.find("output \\assign ;"), std::string::npos) << text;
  const Netlist back = read_verilog_string(text, lib);
  EXPECT_EQ(to_blif_string(back), to_blif_string(nl));
  EXPECT_EQ(to_verilog_string(back), text);
}

// Two output ports of one name would be written as two `assign`s to it,
// text the reader refuses; both readers refuse the duplicate up front.
TEST(VerilogReader, RejectsDuplicateOutputPort) {
  const CellLibrary& lib = default_cell_library();
  try {
    read_verilog_string(
        "module m (a, y); input a; output y; output y;\n"
        "INV g (.A(a), .Y(y));\nendmodule",
        lib);
    FAIL() << "duplicate output port accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate output port 'y'"),
              std::string::npos)
        << e.what();
  }
  Netlist nl(&lib, "m");
  const NetId a = nl.add_input("a");
  nl.add_output(a, "y");
  nl.add_output(a);  // a second port on the same net, named after it
  EXPECT_THROW(nl.add_output(a, "y"), CheckError);
  EXPECT_THROW(nl.add_output(a), CheckError);
  EXPECT_EQ(nl.outputs().size(), 2u);
}

TEST(VerilogReader, HandlesAssignAliases) {
  const Netlist nl = read_verilog_string(kAliasText, default_cell_library());
  EXPECT_EQ(nl.num_live_gates(), 1u);
  EXPECT_EQ(nl.outputs()[0].name, "y");
  // The alias resolves to the NAND output net.
  EXPECT_EQ(nl.outputs()[0].net, nl.gate(nl.find_gate("g1")).output);
}

TEST(VerilogReader, OutOfOrderInstances) {
  // Instances given consumer-first must still link up.
  const char* text = R"(
module top (a, y);
  input a;
  output y;
  wire n1; wire n2;
  INV g2 (.A(n1), .Y(n2));
  INV g1 (.A(a), .Y(n1));
  assign y = n2;
endmodule
)";
  const Netlist nl = read_verilog_string(text, default_cell_library());
  EXPECT_EQ(nl.num_live_gates(), 2u);
  EXPECT_EQ(nl.depth(), 2);
}

TEST(VerilogReader, RejectsBadInput) {
  const CellLibrary& lib = default_cell_library();
  EXPECT_THROW(read_verilog_string("module m (a); input a;", lib),
               CheckError);  // no endmodule
  EXPECT_THROW(read_verilog_string(
                   "module m (y); output y; wire w;\n"
                   "BOGUS g (.A(w), .Y(y));\nendmodule",
                   lib),
               CheckError);  // unknown cell
  EXPECT_THROW(read_verilog_string(
                   "module m (a, y); input a; output y;\n"
                   "INV g (.A(y), .Y(y));\nendmodule",
                   lib),
               CheckError);  // combinational cycle / self-drive
  EXPECT_THROW(read_verilog_string(
                   "module m (a, y); input a; output y;\nendmodule", lib),
               CheckError);  // undriven output
}

TEST(VerilogReader, RejectsAssignCycle) {
  const auto expect_cycle = [](const char* text) {
    try {
      read_verilog_string(text, default_cell_library());
      ADD_FAILURE() << "accepted:\n" << text;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("form a cycle"), std::string::npos)
          << e.what();
    }
  };
  // Reached from an instance pin.
  expect_cycle("module m (a, f); input a; output f;\n"
               "INV g (.A(x), .Y(f));\n"
               "assign x = y; assign y = x;\nendmodule");
  // Reached from an output port.
  expect_cycle("module m (a, f); input a; output f;\n"
               "INV g (.A(a), .Y(n));\n"
               "assign f = x; assign x = y; assign y = x;\nendmodule");
  // A gate output aliased to itself.
  expect_cycle("module m (a, f); input a; output f;\n"
               "INV g (.A(a), .Y(f));\n"
               "assign f = f;\nendmodule");
}

TEST(VerilogReader, LongAssignChainResolves) {
  // f = a0 = a1 = ... = a99999 = x, and x is the INV's output.
  const int n = 100000;
  std::string text =
      "module m (a, f); input a; output f;\n"
      "INV g (.A(a), .Y(x));\nassign f = a0;\n";
  for (int i = 0; i < n; ++i) {
    text += "assign a" + std::to_string(i) + " = ";
    text += i + 1 < n ? 'a' + std::to_string(i + 1) : std::string("x");
    text += ";\n";
  }
  text += "endmodule\n";
  const Netlist nl = read_verilog_string(text, default_cell_library());
  ASSERT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.outputs()[0].name, "f");
  EXPECT_EQ(nl.outputs()[0].net, nl.gate(nl.find_gate("g")).output);
}

TEST(VerilogReader, ConsumerFirstChainParses) {
  // g<i> reads n<i-1> (g0 reads a); the text lists g99999 first and g0
  // last. Each gate's only driver comes later in the text, so g<i> is
  // created in pass i + 1 and gets id i.
  const int n = 100000;
  std::string text = "module m (a, f); input a; output f;\n";
  for (int i = n - 1; i >= 0; --i) {
    const std::string in = i == 0 ? "a" : 'n' + std::to_string(i - 1);
    text += "INV g" + std::to_string(i) + " (.A(" + in + "), .Y(n" +
            std::to_string(i) + "));\n";
  }
  text += "assign f = n" + std::to_string(n - 1) + ";\nendmodule\n";
  const Netlist nl = read_verilog_string(text, default_cell_library());
  ASSERT_EQ(nl.num_live_gates(), static_cast<std::size_t>(n));
  EXPECT_EQ(nl.depth(), n);
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(nl.find_gate("g" + std::to_string(i)),
              static_cast<GateId>(i));
  }
}

TEST(VerilogWriter, FileIo) {
  const Netlist nl = make_benchmark("c17");
  const std::string path = testing::TempDir() + "/odcfp_c17.v";
  write_verilog_file(path, nl);
  const Netlist back = read_verilog_file(path, nl.library());
  EXPECT_TRUE(random_sim_equal(nl, back, 16, 3));
  EXPECT_THROW(read_verilog_file("/nonexistent/odcfp.v", nl.library()),
               CheckError);
}

// ------------------------------------------------------ hostile input

/// The identifier-like words of `text`: the names an inserted `assign`
/// draws from.
std::vector<std::string> words_of(const std::string& text) {
  std::vector<std::string> words;
  std::string word;
  for (const char c : text + " ") {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      word += c;
    } else if (!word.empty()) {
      words.push_back(word);
      word.clear();
    }
  }
  return words;
}

/// `text` after one mutation drawn from `rng`: a flipped bit, a deleted or
/// duplicated span, a truncation, two swapped lines, or an
/// `assign <a> = <b>;` between two of `words` inserted at a line start.
std::string mutate(std::string text, const std::vector<std::string>& words,
                   Rng& rng) {
  if (text.empty()) return text;
  const std::size_t at = rng.next_below(text.size());
  const std::size_t len =
      1 + rng.next_below(std::min<std::size_t>(64, text.size() - at));
  std::vector<std::string> lines;
  for (std::size_t start = 0; start < text.size();) {
    const std::size_t end = std::min(text.find('\n', start), text.size());
    lines.push_back(text.substr(start, end + 1 - start));
    start = end + 1;
  }
  switch (rng.next_below(6)) {
    case 0:
      text[at] = static_cast<char>(text[at] ^ (1 << rng.next_below(8)));
      return text;
    case 1:
      return text.erase(at, len);
    case 2:
      return text.insert(at, text.substr(at, len));
    case 3:
      return text.substr(0, at);
    case 4:
      std::swap(lines[rng.next_below(lines.size())],
                lines[rng.next_below(lines.size())]);
      break;
    default:
      lines.insert(lines.begin() +
                       static_cast<std::ptrdiff_t>(
                           rng.next_below(lines.size() + 1)),
                   "assign " + words[rng.next_below(words.size())] + " = " +
                       words[rng.next_below(words.size())] + ";\n");
      break;
  }
  std::string out;
  for (const std::string& line : lines) out += line;
  return out;
}

TEST(VerilogReaderFuzz, MutantsParseOrThrowCheckError) {
  const CellLibrary& lib = default_cell_library();
  const std::string texts[] = {to_verilog_string(make_benchmark("c17")),
                               to_verilog_string(make_benchmark("c432")),
                               kAliasText};
  std::size_t parsed = 0, rejected = 0;
  for (const std::string& base : texts) {
    const std::vector<std::string> words = words_of(base);
    Rng rng(0xf22);
    for (int k = 0; k < 1000; ++k) {
      std::string mutant = base;
      for (std::uint64_t ops = 1 + rng.next_below(3); ops > 0; --ops) {
        mutant = mutate(std::move(mutant), words, rng);
      }
      try {
        const Netlist nl = read_verilog_string(mutant, lib);
        ++parsed;
        // Whatever the reader accepts, both writers format.
        EXPECT_FALSE(to_verilog_string(nl).empty());
        EXPECT_FALSE(to_blif_string(nl).empty());
      } catch (const CheckError&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "mutant " << k << " threw " << e.what() << ":\n"
                      << mutant;
      }
    }
  }
  // Both outcomes occur: the mutants reach past the lexer.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace odcfp
