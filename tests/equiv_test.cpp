#include "equiv/cec.hpp"

#include <gtest/gtest.h>

#include "benchgen/benchmarks.hpp"
#include "common/check.hpp"
#include "sim/simulator.hpp"
#include "synth/mapper.hpp"

namespace odcfp {
namespace {

/// Two structurally different implementations of f = a & b & c.
Netlist and3_flat() {
  Netlist nl(&default_cell_library(), "flat");
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  const GateId g = nl.add_gate_kind(CellKind::kAnd, {a, b, c});
  nl.add_output(nl.gate(g).output, "f");
  return nl;
}

Netlist and3_tree() {
  Netlist nl(&default_cell_library(), "tree");
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  const GateId g1 = nl.add_gate_kind(CellKind::kNand, {a, b});
  const GateId g2 = nl.add_gate_kind(CellKind::kInv, {nl.gate(g1).output});
  const GateId g3 = nl.add_gate_kind(CellKind::kAnd,
                                     {nl.gate(g2).output, c});
  nl.add_output(nl.gate(g3).output, "f");
  return nl;
}

Netlist and3_wrong() {
  Netlist nl(&default_cell_library(), "wrong");
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  const GateId g1 = nl.add_gate_kind(CellKind::kAnd, {a, b});
  const GateId g3 =
      nl.add_gate_kind(CellKind::kOr, {nl.gate(g1).output, c});
  nl.add_output(nl.gate(g3).output, "f");
  return nl;
}

TEST(RandomSim, DetectsDifferenceWithCounterexample) {
  const Netlist a = and3_flat();
  const Netlist w = and3_wrong();
  std::vector<bool> cex;
  EXPECT_FALSE(random_sim_equal(a, w, 16, 1, &cex));
  ASSERT_EQ(cex.size(), 3u);
  // Verify the counterexample distinguishes the circuits.
  const bool fa = cex[0] && cex[1] && cex[2];
  const bool fw = (cex[0] && cex[1]) || cex[2];
  EXPECT_NE(fa, fw);
}

TEST(RandomSim, PassesForEquivalent) {
  EXPECT_TRUE(random_sim_equal(and3_flat(), and3_tree(), 64, 2));
}

TEST(Exhaustive, ProvesSmallEquivalence) {
  EXPECT_TRUE(exhaustive_equal(and3_flat(), and3_tree()));
  std::vector<bool> cex;
  EXPECT_FALSE(exhaustive_equal(and3_flat(), and3_wrong(), &cex));
  EXPECT_EQ(cex.size(), 3u);
}

TEST(SatCec, ProvesEquivalence) {
  const CecResult r = check_equivalence_sat(and3_flat(), and3_tree());
  EXPECT_EQ(r.status, CecResult::Status::kEquivalent);
}

TEST(SatCec, FindsCounterexample) {
  const CecResult r = check_equivalence_sat(and3_flat(), and3_wrong());
  ASSERT_EQ(r.status, CecResult::Status::kDifferent);
  ASSERT_EQ(r.counterexample.size(), 3u);
  const auto& cex = r.counterexample;
  const bool fa = cex[0] && cex[1] && cex[2];
  const bool fw = (cex[0] && cex[1]) || cex[2];
  EXPECT_NE(fa, fw);
}

TEST(SatCec, BenchmarkSelfEquivalenceViaRemap) {
  // The same benchmark mapped with different diversification seeds is a
  // nontrivial CEC instance that must prove equivalent.
  const SopNetwork sop = make_benchmark_sop("c432");
  MapperOptions o1, o2;
  o1.seed = 1;
  o2.seed = 999;
  o2.nand_nor_fraction = 0.3;
  const Netlist a = map_to_cells(sop, default_cell_library(), o1);
  const Netlist b = map_to_cells(sop, default_cell_library(), o2);
  const CecResult r = check_equivalence_sat(a, b);
  EXPECT_EQ(r.status, CecResult::Status::kEquivalent);
  EXPECT_GT(r.sat_stats.propagations, 0u);
}

TEST(SatCec, DetectsSingleGateCorruption) {
  const Netlist golden = make_benchmark("c880");
  Netlist bad = golden;
  // Flip one gate kind: NAND2 <-> NOR2 somewhere.
  for (GateId g = 0; g < bad.num_gates(); ++g) {
    if (bad.gate(g).is_dead()) continue;
    if (bad.cell_of(g).kind == CellKind::kNand &&
        bad.cell_of(g).num_inputs() == 2) {
      bad.rewire_gate(g, bad.library().find_kind(CellKind::kNor, 2),
                      bad.gate(g).fanins);
      break;
    }
  }
  const CecResult r = verify_equivalence(golden, bad);
  EXPECT_EQ(r.status, CecResult::Status::kDifferent);
}

TEST(SatCec, DegenerateNoOutputsIsTriviallyEquivalent) {
  // Zero shared outputs means there is nothing to compare: the verdict
  // is equivalent by definition, carries a distinct diagnostic, and no
  // clause may ever reach a solver (an empty diff disjunction would
  // poison it with a level-0 conflict).
  Netlist a(&default_cell_library(), "a");
  a.add_input("x");
  Netlist b(&default_cell_library(), "b");
  b.add_input("x");
  const CecResult r = check_equivalence_sat(a, b);
  EXPECT_EQ(r.status, CecResult::Status::kEquivalent);
  EXPECT_EQ(r.method, "trivial-no-outputs");
  EXPECT_EQ(r.sat_stats.conflicts, 0u);
}

TEST(VerifyEquivalence, PicksExhaustiveForSmallCircuits) {
  const CecResult r = verify_equivalence(and3_flat(), and3_tree());
  EXPECT_EQ(r.method, "exhaustive");
  EXPECT_TRUE(r.equivalent());
}

TEST(VerifyEquivalence, MismatchedInterfacesThrow) {
  Netlist a(&default_cell_library(), "a");
  const NetId x = a.add_input("x");
  a.add_output(x, "f");
  Netlist b(&default_cell_library(), "b");
  const NetId y = b.add_input("y");
  b.add_output(y, "f");
  EXPECT_THROW(verify_equivalence(a, b), CheckError);
}

// ---- budgeted verification (graceful degradation) ----

TEST(BudgetedCec, ProvesWithinGenerousBudget) {
  Budget budget = Budget::deadline_ms(60000);
  const Outcome<CecResult> out =
      verify_equivalence_budgeted(and3_flat(), and3_tree(), &budget);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().equivalent());
  EXPECT_DOUBLE_EQ(out.confidence(), 1.0);
}

TEST(BudgetedCec, DifferenceIsExactEvenUnderTinyBudget) {
  // Refutation comes from simulation, which a small budget still affords;
  // a found difference is an exact verdict, not a degraded one.
  BudgetedCecOptions options;
  options.sat_conflict_limit = 1;
  const Outcome<CecResult> out = verify_equivalence_budgeted(
      and3_flat(), and3_wrong(), /*budget=*/nullptr, options);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().status, CecResult::Status::kDifferent);
  EXPECT_EQ(out.value().counterexample.size(), 3u);
}

TEST(BudgetedCec, SatExhaustionFallsBackToSimulationVerdict) {
  // A real miter (c880, 60 PIs — too wide for the exhaustive checker)
  // under a conflict limit far too small for the UNSAT proof: the checker
  // must return kExhausted with simulation evidence — not throw, and not
  // run the proof to completion.
  const SopNetwork sop = make_benchmark_sop("c880");
  MapperOptions o1, o2;
  o1.seed = 1;
  o2.seed = 999;
  o2.nand_nor_fraction = 0.3;
  const Netlist a = map_to_cells(sop, default_cell_library(), o1);
  const Netlist b = map_to_cells(sop, default_cell_library(), o2);

  BudgetedCecOptions options;
  options.sat_conflict_limit = 2;
  const Outcome<CecResult> out =
      verify_equivalence_budgeted(a, b, /*budget=*/nullptr, options);
  EXPECT_EQ(out.status(), Status::kExhausted);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value().status, CecResult::Status::kUnknown);
  EXPECT_EQ(out.value().method, "sat+sim-fallback");
  EXPECT_LE(out.value().sat_stats.conflicts, 2u);
  // The fallback simulation accumulated real evidence of equivalence.
  EXPECT_GT(out.confidence(), 0.0);
  EXPECT_LT(out.confidence(), 1.0);
  EXPECT_FALSE(out.message().empty());
}

TEST(BudgetedCec, StepQuotaExhaustsWithoutHanging) {
  const Netlist golden = make_benchmark("c880");
  const Netlist copy = golden;
  CancelToken token;
  token.cancel();
  Budget budget;
  budget.with_cancel(token);
  const Outcome<CecResult> out =
      verify_equivalence_budgeted(golden, copy, &budget);
  // A budget that is already dead returns promptly with a typed status,
  // not a proof.
  EXPECT_EQ(out.status(), Status::kExhausted);
}

TEST(BudgetedCec, MismatchedInterfacesReturnMalformed) {
  Netlist a(&default_cell_library(), "a");
  const NetId x = a.add_input("x");
  a.add_output(x, "f");
  Netlist b(&default_cell_library(), "b");
  const NetId y = b.add_input("y");
  b.add_output(y, "f");
  const Outcome<CecResult> out =
      verify_equivalence_budgeted(a, b, nullptr);
  EXPECT_EQ(out.status(), Status::kMalformedInput);
  EXPECT_FALSE(out.has_value());
  EXPECT_FALSE(out.message().empty());
}

TEST(BudgetedCec, NullBudgetProvesLikeUnbudgeted) {
  const Outcome<CecResult> out =
      verify_equivalence_budgeted(and3_flat(), and3_tree(), nullptr);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().equivalent());
}

}  // namespace
}  // namespace odcfp
