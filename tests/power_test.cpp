#include "power/power.hpp"

#include <gtest/gtest.h>

#include "benchgen/benchmarks.hpp"

namespace odcfp {
namespace {

TEST(Power, ProbabilityPropagationHandChecked) {
  // f = AND(a, b): p(f) = 0.25. g = OR(a, b): p(g) = 0.75.
  // h = XOR(a, b): p(h) = 0.5.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const GateId ga = nl.add_gate_kind(CellKind::kAnd, {a, b});
  const GateId go = nl.add_gate_kind(CellKind::kOr, {a, b});
  const GateId gx = nl.add_gate_kind(CellKind::kXor, {a, b});
  nl.add_output(nl.gate(ga).output, "f");
  nl.add_output(nl.gate(go).output, "g");
  nl.add_output(nl.gate(gx).output, "h");
  const PowerAnalyzer power;
  const PowerReport rep = power.analyze(nl);
  EXPECT_NEAR(rep.probability[nl.gate(ga).output], 0.25, 1e-12);
  EXPECT_NEAR(rep.probability[nl.gate(go).output], 0.75, 1e-12);
  EXPECT_NEAR(rep.probability[nl.gate(gx).output], 0.5, 1e-12);
  // Activities: 2 p (1-p).
  EXPECT_NEAR(rep.activity[nl.gate(ga).output], 2 * 0.25 * 0.75, 1e-12);
  EXPECT_NEAR(rep.activity[nl.gate(gx).output], 0.5, 1e-12);
  EXPECT_GT(rep.dynamic_power, 0);
}

TEST(Power, SimulationAgreesWithAnalyticOnTrees) {
  // On fanout-free (tree) circuits the independence assumption is exact,
  // so Monte-Carlo must converge to the analytic value.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  const NetId d = nl.add_input("d");
  const GateId g1 = nl.add_gate_kind(CellKind::kNand, {a, b});
  const GateId g2 = nl.add_gate_kind(CellKind::kNor, {c, d});
  const GateId g3 = nl.add_gate_kind(
      CellKind::kXor, {nl.gate(g1).output, nl.gate(g2).output});
  nl.add_output(nl.gate(g3).output, "f");
  const PowerAnalyzer power;
  const PowerReport analytic = power.analyze(nl);
  const PowerReport sim = power.analyze_by_simulation(nl, 512, 33);
  EXPECT_NEAR(sim.dynamic_power, analytic.dynamic_power,
              0.05 * analytic.dynamic_power);
}

TEST(Power, SimulationCloseOnRealCircuit) {
  // With reconvergent fanout the analytic model is approximate but should
  // stay within ~20% of measured switching on these benchmarks.
  const Netlist nl = make_benchmark("c880");
  const PowerAnalyzer power;
  const double analytic = power.analyze(nl).dynamic_power;
  const double sim =
      power.analyze_by_simulation(nl, 256, 11).dynamic_power;
  EXPECT_NEAR(sim, analytic, 0.2 * analytic);
}

TEST(Power, MorePowerWithMoreGates) {
  const Netlist small = make_benchmark("c432");
  const Netlist big = make_benchmark("c3540");
  const PowerAnalyzer power;
  EXPECT_GT(power.analyze(big).dynamic_power,
            power.analyze(small).dynamic_power);
}

TEST(Power, ConstantNetsHaveZeroActivity) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const GateId k1 = nl.add_gate(nl.library().find("CONST1"), {});
  const GateId g =
      nl.add_gate_kind(CellKind::kAnd, {a, nl.gate(k1).output});
  nl.add_output(nl.gate(g).output, "f");
  const PowerAnalyzer power;
  const PowerReport rep = power.analyze(nl);
  EXPECT_DOUBLE_EQ(rep.activity[nl.gate(k1).output], 0.0);
  EXPECT_NEAR(rep.probability[nl.gate(g).output], 0.5, 1e-12);
}

}  // namespace
}  // namespace odcfp
