#include "io/blif.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "benchgen/benchmarks.hpp"
#include "common/check.hpp"
#include "sim/simulator.hpp"
#include "synth/mapper.hpp"

namespace odcfp {
namespace {

constexpr const char* kSmallBlif = R"(
# a tiny circuit
.model tiny
.inputs a b c
.outputs f g
.names a b t1
11 1
.names t1 c f
1- 1
-1 1
.names c g
0 1
.end
)";

TEST(BlifReader, ParsesSmallModel) {
  const SopNetwork sop = read_blif_string(kSmallBlif);
  EXPECT_EQ(sop.name(), "tiny");
  EXPECT_EQ(sop.inputs().size(), 3u);
  EXPECT_EQ(sop.outputs().size(), 2u);
  // f = (a & b) | c; g = !c. Evaluate all 8 patterns in one word.
  std::vector<std::uint64_t> ins(3);
  for (int i = 0; i < 3; ++i) {
    std::uint64_t w = 0;
    for (unsigned p = 0; p < 8; ++p) {
      if ((p >> i) & 1) w |= 1ull << p;
    }
    ins[static_cast<std::size_t>(i)] = w;
  }
  const auto outs = sop.evaluate(ins);
  for (unsigned p = 0; p < 8; ++p) {
    const bool a = p & 1, b = p & 2, c = p & 4;
    EXPECT_EQ((outs[0] >> p) & 1, ((a && b) || c) ? 1u : 0u) << p;
    EXPECT_EQ((outs[1] >> p) & 1, (!c) ? 1u : 0u) << p;
  }
}

TEST(BlifReader, OffsetCover) {
  // Cover rows with output 0 define the complement.
  const char* text = R"(
.model offs
.inputs a b
.outputs f
.names a b f
11 0
.end
)";
  const SopNetwork sop = read_blif_string(text);
  const auto outs = sop.evaluate({0xAAAAAAAAAAAAAAAAull,
                                  0xCCCCCCCCCCCCCCCCull});
  // f = !(a & b)
  EXPECT_EQ(outs[0],
            ~(0xAAAAAAAAAAAAAAAAull & 0xCCCCCCCCCCCCCCCCull));
}

TEST(BlifReader, Constants) {
  const char* text = R"(
.model consts
.inputs a
.outputs one zero pass
.names one
1
.names zero
.names a pass
1 1
.end
)";
  const SopNetwork sop = read_blif_string(text);
  const auto outs = sop.evaluate({0x0123456789abcdefull});
  EXPECT_EQ(outs[0], ~0ull);
  EXPECT_EQ(outs[1], 0ull);
  EXPECT_EQ(outs[2], 0x0123456789abcdefull);
}

TEST(BlifReader, LineContinuationAndComments) {
  const char* text =
      ".model cont\n.inputs a \\\nb\n.outputs f # trailing\n"
      ".names a b f\n11 1\n.end\n";
  const SopNetwork sop = read_blif_string(text);
  EXPECT_EQ(sop.inputs().size(), 2u);
}

TEST(BlifReader, RejectsLatchesAndMalformed) {
  EXPECT_THROW(read_blif_string(".model x\n.latch a b\n.end\n"),
               CheckError);
  EXPECT_THROW(read_blif_string(".inputs a\n.end\n"), CheckError);
  EXPECT_THROW(
      read_blif_string(".model x\n.inputs a\n.outputs f\n"
                       ".names a f\n12 1\n.end\n"),
      CheckError);
  // Cube width mismatch.
  EXPECT_THROW(
      read_blif_string(".model x\n.inputs a b\n.outputs f\n"
                       ".names a b f\n111 1\n.end\n"),
      CheckError);
}

/// Runs the parser on `text`, expecting a CheckError, and returns its
/// diagnostic message.
std::string parse_error(const std::string& text) {
  try {
    read_blif_string(text);
  } catch (const CheckError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected CheckError for:\n" << text;
  return {};
}

TEST(BlifDiagnostics, ErrorsCarryLineNumbers) {
  // Each malformed construct must name the offending line.
  EXPECT_NE(parse_error(".model x\n.inputs a b\n.outputs f\n"
                        ".names a b f\n111 1\n.end\n")
                .find("line 5"),
            std::string::npos);  // cube width mismatch on line 5
  EXPECT_NE(parse_error(".model x\n.inputs a\n.outputs f\n"
                        ".names a f\n2 1\n.end\n")
                .find("line 5"),
            std::string::npos);  // bad cube character on line 5
  EXPECT_NE(parse_error(".model x\n.latch a b\n.end\n").find("line 2"),
            std::string::npos);
  EXPECT_NE(parse_error(".model x\n.model y\n.end\n").find("line 2"),
            std::string::npos);
  EXPECT_NE(parse_error(".model x\n.inputs a b\n.outputs f\n"
                        ".names a b f\n11 1\n00 0\n.end\n")
                .find("line 4"),
            std::string::npos);  // mixed cover names the .names line
}

TEST(BlifDiagnostics, RejectsDuplicateNamesOutput) {
  const std::string msg = parse_error(
      ".model x\n.inputs a b\n.outputs f\n"
      ".names a f\n1 1\n"
      ".names b f\n1 1\n.end\n");
  EXPECT_NE(msg.find("duplicate .names output 'f'"), std::string::npos);
  EXPECT_NE(msg.find("line 6"), std::string::npos);
  EXPECT_NE(msg.find("first defined at line 4"), std::string::npos);
}

TEST(BlifDiagnostics, RejectsNamesRedefiningPrimaryInput) {
  const std::string msg = parse_error(
      ".model x\n.inputs a b\n.outputs f\n"
      ".names b a\n1 1\n"
      ".names a f\n1 1\n.end\n");
  EXPECT_NE(msg.find("primary input 'a' redefined"), std::string::npos);
  EXPECT_NE(msg.find("line 4"), std::string::npos);
}

// A CheckError names its source from the repo root, so one malformed
// input gives one message whatever directory the build was made in.
TEST(BlifDiagnostics, CheckErrorsNameSourcesFromTheRepoRoot) {
  const Outcome<SopNetwork> bad = try_read_blif_string(
      ".model x\n.inputs a b\n.outputs f\n"
      ".names b a\n1 1\n"
      ".names a f\n1 1\n.end\n");
  ASSERT_EQ(bad.status(), Status::kMalformedInput);
  EXPECT_NE(bad.message().find("primary input 'a' redefined"),
            std::string::npos);
  EXPECT_NE(bad.message().find(" at src/io/blif.cpp:"), std::string::npos)
      << bad.message();
}

TEST(BlifDiagnostics, RejectsRedeclaredInput) {
  const std::string msg = parse_error(
      ".model x\n.inputs a b\n.inputs a\n.outputs f\n"
      ".names a f\n1 1\n.end\n");
  EXPECT_NE(msg.find("redeclared"), std::string::npos);
  EXPECT_NE(msg.find("line 3"), std::string::npos);
}

TEST(BlifDiagnostics, RejectsInputDeclaredAfterNamesDefinition) {
  const std::string msg = parse_error(
      ".model x\n.inputs a\n.outputs f\n"
      ".names a f\n1 1\n.inputs f\n.end\n");
  EXPECT_NE(msg.find("already defined by .names"), std::string::npos);
  EXPECT_NE(msg.find("line 6"), std::string::npos);
}

TEST(BlifDiagnostics, RejectsDuplicateOutputPort) {
  const SopNetwork sop = read_blif_string(
      ".model x\n.inputs a\n.outputs f f\n.names a f\n1 1\n.end\n");
  try {
    map_to_cells(sop, default_cell_library());
    FAIL() << "duplicate output port accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate output port 'f'"),
              std::string::npos)
        << e.what();
  }
}

TEST(BlifTryRead, SuccessAndMalformedOutcomes) {
  const Outcome<SopNetwork> good = try_read_blif_string(kSmallBlif);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value().name(), "tiny");
  EXPECT_DOUBLE_EQ(good.confidence(), 1.0);

  const Outcome<SopNetwork> bad =
      try_read_blif_string(".model x\n.latch a b\n.end\n");
  EXPECT_EQ(bad.status(), Status::kMalformedInput);
  EXPECT_FALSE(bad.has_value());
  EXPECT_NE(bad.message().find(".latch"), std::string::npos);
}

TEST(BlifRoundTrip, SopNetwork) {
  const SopNetwork sop = read_blif_string(kSmallBlif);
  std::ostringstream os;
  write_blif(os, sop);
  const SopNetwork again = read_blif_string(os.str());
  // Same interface and same function on all 8 patterns.
  ASSERT_EQ(again.inputs().size(), sop.inputs().size());
  ASSERT_EQ(again.outputs().size(), sop.outputs().size());
  std::vector<std::uint64_t> ins(3);
  for (int i = 0; i < 3; ++i) {
    std::uint64_t w = 0;
    for (unsigned p = 0; p < 8; ++p) {
      if ((p >> i) & 1) w |= 1ull << p;
    }
    ins[static_cast<std::size_t>(i)] = w;
  }
  EXPECT_EQ(sop.evaluate(ins), again.evaluate(ins));
}

TEST(BlifRoundTrip, MappedNetlistThroughBlif) {
  // Netlist -> BLIF -> SopNetwork -> remap: functions must agree.
  const Netlist nl = make_benchmark("c17");
  const std::string text = to_blif_string(nl);
  const SopNetwork sop = read_blif_string(text);
  ASSERT_EQ(sop.inputs().size(), nl.inputs().size());
  ASSERT_EQ(sop.outputs().size(), nl.outputs().size());
  // Evaluate both on counting patterns (5 inputs -> 32 rows).
  std::vector<std::uint64_t> ins(5);
  for (int i = 0; i < 5; ++i) {
    std::uint64_t w = 0;
    for (unsigned p = 0; p < 32; ++p) {
      if ((p >> i) & 1) w |= 1ull << p;
    }
    ins[static_cast<std::size_t>(i)] = w;
  }
  const auto sop_out = sop.evaluate(ins);
  Netlist remapped = map_to_cells(sop, nl.library());
  // Compare against direct simulation of the original netlist.
  Simulator sim(nl);
  for (std::size_t i = 0; i < 5; ++i) sim.set_input_word(i, ins[i]);
  sim.run();
  const auto nl_out = sim.output_words();
  const std::uint64_t mask = (1ull << 32) - 1;
  for (std::size_t o = 0; o < nl_out.size(); ++o) {
    EXPECT_EQ(sop_out[o] & mask, nl_out[o] & mask) << "output " << o;
  }
}

}  // namespace
}  // namespace odcfp
