#include "sim/simulator.hpp"

#include <gtest/gtest.h>

namespace odcfp {
namespace {

TEST(EvalTtWords, MatchesTruthTableBitwise) {
  // For every default-library cell, eval_signature must agree with the
  // truth table on every pattern of a 1-word table and of a 1,024-word
  // one (16 blocks). Input i is leaf i of the short table and leaf 3i of
  // the long one, so its inputs mix in-word and across-block leaves.
  const CellLibrary& lib = default_cell_library();
  for (const std::size_t words : {std::size_t{1}, std::size_t{1024}}) {
    const std::size_t stride = words == 1 ? 1 : 3;
    for (CellId c = 0; c < lib.size(); ++c) {
      const TruthTable& tt = lib.cell(c).function;
      const auto k = static_cast<std::size_t>(tt.num_inputs());
      std::vector<std::vector<std::uint64_t>> tables(
          k, std::vector<std::uint64_t>(words));
      std::vector<const std::uint64_t*> ins;
      for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t w = 0; w < words; ++w) {
          tables[i][w] = projection_word(stride * i, w);
        }
        ins.push_back(tables[i].data());
      }
      std::vector<std::uint64_t> out(words);
      eval_signature(tt, ins, out.data(), words);
      std::size_t wrong = 0;
      for (std::size_t pattern = 0; pattern < 64 * words; ++pattern) {
        unsigned row = 0;
        for (std::size_t i = 0; i < k; ++i) {
          row |= static_cast<unsigned>((pattern >> (stride * i)) & 1) << i;
        }
        const bool bit = (out[pattern / 64] >> (pattern % 64)) & 1;
        if (bit != tt.eval(row)) ++wrong;
      }
      EXPECT_EQ(wrong, 0u) << lib.cell(c).name << " over " << words
                           << " words";
    }
  }
}

TEST(Simulator, FullAdderExhaustive) {
  // sum = a ^ b ^ cin, carry = maj(a, b, cin), built from gates.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId cin = nl.add_input("cin");
  const GateId x1 = nl.add_gate_kind(CellKind::kXor, {a, b});
  const GateId sum =
      nl.add_gate_kind(CellKind::kXor, {nl.gate(x1).output, cin});
  const GateId a1 = nl.add_gate_kind(CellKind::kAnd, {a, b});
  const GateId a2 =
      nl.add_gate_kind(CellKind::kAnd, {nl.gate(x1).output, cin});
  const GateId carry = nl.add_gate_kind(
      CellKind::kOr, {nl.gate(a1).output, nl.gate(a2).output});
  nl.add_output(nl.gate(sum).output, "sum");
  nl.add_output(nl.gate(carry).output, "carry");

  Simulator sim(nl);
  sim.load_counting_patterns(0);
  sim.run();
  const auto outs = sim.output_words();
  for (unsigned p = 0; p < 8; ++p) {
    const int av = p & 1, bv = (p >> 1) & 1, cv = (p >> 2) & 1;
    const int s = av ^ bv ^ cv;
    const int c = (av + bv + cv) >= 2;
    EXPECT_EQ((outs[0] >> p) & 1, static_cast<unsigned>(s)) << p;
    EXPECT_EQ((outs[1] >> p) & 1, static_cast<unsigned>(c)) << p;
  }
}

TEST(Simulator, CountingPatternsAreExhaustive) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const GateId g = nl.add_gate_kind(CellKind::kNand, {a, b});
  nl.add_output(nl.gate(g).output, "y");
  Simulator sim(nl);
  sim.load_counting_patterns(0);
  sim.run();
  const std::uint64_t y = sim.output_words()[0];
  // Pattern b: a = bit0 of b, b = bit1 of b; NAND false only when both 1
  // (b % 4 == 3).
  for (unsigned bit = 0; bit < 64; ++bit) {
    EXPECT_EQ((y >> bit) & 1, (bit % 4 == 3) ? 0u : 1u) << bit;
  }
}

TEST(Simulator, RandomizeIsDeterministicPerSeed) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const GateId g = nl.add_gate_kind(CellKind::kInv, {a});
  nl.add_output(nl.gate(g).output, "y");
  Simulator s1(nl), s2(nl);
  Rng r1(123), r2(123);
  s1.randomize_inputs(r1);
  s2.randomize_inputs(r2);
  s1.run();
  s2.run();
  EXPECT_EQ(s1.output_words()[0], s2.output_words()[0]);
  EXPECT_EQ(s1.value(a), ~s1.output_words()[0]);
}

}  // namespace
}  // namespace odcfp
