#include "timing/sta.hpp"

#include <gtest/gtest.h>

#include "benchgen/benchmarks.hpp"

namespace odcfp {
namespace {

TEST(Sta, HandComputedChain) {
  // a -> INV -> INV -> f. Loads: inner INV drives one INV pin
  // (cap 1.0 + wire 0.35); outer drives the PO (2.0 + nothing).
  Netlist nl;
  const NetId a = nl.add_input("a");
  const GateId g1 = nl.add_gate_kind(CellKind::kInv, {a});
  const GateId g2 = nl.add_gate_kind(CellKind::kInv, {nl.gate(g1).output});
  nl.add_output(nl.gate(g2).output, "f");

  const StaticTimingAnalyzer sta;
  const Cell& inv = nl.library().cell(nl.library().find("INV"));
  const double d1 = inv.intrinsic_delay +
                    inv.load_coeff * (inv.input_cap + 0.35);
  const double d2 = inv.intrinsic_delay + inv.load_coeff * 2.0;
  EXPECT_NEAR(sta.gate_delay(nl, g1), d1, 1e-12);
  EXPECT_NEAR(sta.gate_delay(nl, g2), d2, 1e-12);
  EXPECT_NEAR(sta.critical_delay(nl), d1 + d2, 1e-12);

  // Two ports on the inner net: its load is the fanout caps plus two
  // output pads.
  const NetId inner = nl.gate(g1).output;
  nl.add_output(inner, "t1");
  nl.add_output(inner, "t2");
  EXPECT_NEAR(sta.net_load(nl, inner),
              inv.input_cap + 0.35 + 2 * StaticTimingAnalyzer::kPoLoad,
              1e-12);
}

TEST(Sta, ArrivalTakesMaxOverFanins) {
  // f = AND(inv(a), b): the path through the inverter dominates.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const GateId gi = nl.add_gate_kind(CellKind::kInv, {a});
  const GateId ga = nl.add_gate_kind(CellKind::kAnd,
                                     {nl.gate(gi).output, b});
  nl.add_output(nl.gate(ga).output, "f");
  const StaticTimingAnalyzer sta;
  const TimingReport rep = sta.analyze(nl);
  EXPECT_NEAR(rep.arrival[nl.gate(ga).output],
              sta.gate_delay(nl, gi) + sta.gate_delay(nl, ga), 1e-12);
  // Critical path = INV then AND.
  ASSERT_EQ(rep.critical_path.size(), 2u);
  EXPECT_EQ(rep.critical_path[0], gi);
  EXPECT_EQ(rep.critical_path[1], ga);
}

TEST(Sta, SlackPropertiesOnBenchmarks) {
  for (const char* name : {"c432", "c880", "c1908"}) {
    const Netlist nl = make_benchmark(name);
    const StaticTimingAnalyzer sta;
    const TimingReport rep = sta.analyze(nl);
    EXPECT_GT(rep.critical_delay, 0) << name;
    // Critical-path gates have (near-)zero slack; all slacks >= 0;
    // required >= arrival everywhere.
    double min_slack = 1e100;
    for (GateId g = 0; g < nl.num_gates(); ++g) {
      if (nl.gate(g).is_dead()) continue;
      EXPECT_GE(rep.gate_slack[g], -1e-9) << name;
      min_slack = std::min(min_slack, rep.gate_slack[g]);
    }
    EXPECT_NEAR(min_slack, 0.0, 1e-9) << name;
    for (GateId g : rep.critical_path) {
      EXPECT_NEAR(rep.gate_slack[g], 0.0, 1e-9) << name;
    }
    // The critical path is a connected chain ending at a PO driver.
    for (std::size_t i = 0; i + 1 < rep.critical_path.size(); ++i) {
      const NetId out = nl.gate(rep.critical_path[i]).output;
      bool feeds_next = false;
      for (NetId in : nl.gate(rep.critical_path[i + 1]).fanins) {
        if (in == out) feeds_next = true;
      }
      EXPECT_TRUE(feeds_next) << name << " step " << i;
    }
    // analyze() and critical_delay() agree.
    EXPECT_NEAR(rep.critical_delay, sta.critical_delay(nl), 1e-9);
  }
}

TEST(Sta, AddingLoadIncreasesDelay) {
  // Tapping a net on the critical path increases the circuit delay.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const GateId g1 = nl.add_gate_kind(CellKind::kInv, {a});
  const GateId g2 = nl.add_gate_kind(CellKind::kInv, {nl.gate(g1).output});
  nl.add_output(nl.gate(g2).output, "f");
  const StaticTimingAnalyzer sta;
  const double before = sta.critical_delay(nl);
  // Add a side load on the inner net.
  const GateId side =
      nl.add_gate_kind(CellKind::kBuf, {nl.gate(g1).output});
  nl.add_output(nl.gate(side).output, "g");
  EXPECT_GT(sta.critical_delay(nl), before);
}

TEST(Sta, WideningAGateIncreasesItsDelay) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  const GateId g = nl.add_gate_kind(CellKind::kAnd, {a, b});
  nl.add_output(nl.gate(g).output, "f");
  const StaticTimingAnalyzer sta;
  const double before = sta.critical_delay(nl);
  nl.rewire_gate(g, nl.library().find_kind(CellKind::kAnd, 3), {a, b, c});
  EXPECT_GT(sta.critical_delay(nl), before);
}

}  // namespace
}  // namespace odcfp
