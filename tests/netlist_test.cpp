#include "netlist/netlist.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "netlist/cones.hpp"

namespace odcfp {
namespace {

/// f = (a & b) | c with an inverter on the output.
struct SmallCircuit {
  Netlist nl;
  NetId a, b, c;
  GateId g_and, g_or, g_inv;

  SmallCircuit() {
    a = nl.add_input("a");
    b = nl.add_input("b");
    c = nl.add_input("c");
    g_and = nl.add_gate_kind(CellKind::kAnd, {a, b});
    g_or = nl.add_gate_kind(CellKind::kOr, {nl.gate(g_and).output, c});
    g_inv = nl.add_gate_kind(CellKind::kInv, {nl.gate(g_or).output});
    nl.add_output(nl.gate(g_inv).output, "f");
    nl.validate();
  }
};

TEST(Netlist, BasicConstruction) {
  SmallCircuit s;
  EXPECT_EQ(s.nl.num_live_gates(), 3u);
  EXPECT_EQ(s.nl.inputs().size(), 3u);
  EXPECT_EQ(s.nl.outputs().size(), 1u);
  EXPECT_EQ(s.nl.depth(), 3);
  EXPECT_TRUE(s.nl.has_single_fanout(s.nl.gate(s.g_and).output));
  EXPECT_FALSE(s.nl.has_single_fanout(s.nl.gate(s.g_inv).output));  // PO
}

TEST(Netlist, TopoOrderRespectsDependencies) {
  SmallCircuit s;
  const auto order = s.nl.topo_order();
  ASSERT_EQ(order.size(), 3u);
  auto pos = [&](GateId g) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] == g) return i;
    }
    return order.size();
  };
  EXPECT_LT(pos(s.g_and), pos(s.g_or));
  EXPECT_LT(pos(s.g_or), pos(s.g_inv));
}

TEST(Netlist, RewireGateKeepsFanouts) {
  SmallCircuit s;
  // Widen the AND2 to AND3 by adding input c.
  const CellId and3 =
      s.nl.library().find_kind(CellKind::kAnd, 3);
  ASSERT_NE(and3, kInvalidCell);
  s.nl.rewire_gate(s.g_and, and3, {s.a, s.b, s.c});
  s.nl.validate();
  EXPECT_EQ(s.nl.gate(s.g_and).fanins.size(), 3u);
  // The OR still reads the AND's output.
  EXPECT_EQ(s.nl.gate(s.g_or).fanins[0], s.nl.gate(s.g_and).output);
  // And c now has two fanouts.
  EXPECT_EQ(s.nl.net(s.c).fanouts.size(), 2u);
}

TEST(Netlist, ReconnectPinUpdatesFanoutLists) {
  SmallCircuit s;
  s.nl.reconnect_pin(s.g_or, 1, s.a);
  s.nl.validate(/*allow_dangling=*/true);
  EXPECT_EQ(s.nl.net(s.c).fanouts.size(), 0u);
  EXPECT_EQ(s.nl.net(s.a).fanouts.size(), 2u);
}

TEST(Netlist, TransferFanouts) {
  SmallCircuit s;
  const NetId and_out = s.nl.gate(s.g_and).output;
  // Ports move too: a net carrying two ports lands on one carrying one.
  s.nl.add_output(and_out, "p");
  s.nl.add_output(and_out, "q");
  s.nl.add_output(s.c, "r");
  EXPECT_EQ(s.nl.net(and_out).num_output_ports, 2u);
  s.nl.transfer_fanouts(and_out, s.c);
  s.nl.validate(/*allow_dangling=*/true);
  EXPECT_TRUE(s.nl.net(and_out).fanouts.empty());
  EXPECT_EQ(s.nl.gate(s.g_or).fanins[0], s.c);
  EXPECT_EQ(s.nl.net(and_out).num_output_ports, 0u);
  EXPECT_EQ(s.nl.net(s.c).num_output_ports, 3u);
  for (const OutputPort& p : s.nl.outputs()) {
    if (p.name != "f") {
      EXPECT_EQ(p.net, s.c) << p.name;
    }
  }
}

TEST(Netlist, RemoveAndSweep) {
  SmallCircuit s;
  // Disconnect the AND from the OR, then sweep.
  s.nl.reconnect_pin(s.g_or, 0, s.a);
  EXPECT_EQ(s.nl.sweep_dangling(), 1u);
  EXPECT_EQ(s.nl.num_live_gates(), 2u);
  EXPECT_TRUE(s.nl.gate(s.g_and).is_dead());
}

TEST(Netlist, CompactRemapsIds) {
  SmallCircuit s;
  s.nl.reconnect_pin(s.g_or, 0, s.a);
  s.nl.sweep_dangling();
  const auto remap = s.nl.compact();
  EXPECT_EQ(remap[s.g_and], kInvalidGate);
  EXPECT_NE(remap[s.g_or], kInvalidGate);
  EXPECT_EQ(s.nl.num_gates(), 2u);
  s.nl.validate(/*allow_dangling=*/true);
}

TEST(Netlist, ValidateDetectsCorruption) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  nl.add_output(a, "f");
  nl.validate();  // PI as PO is fine
  EXPECT_THROW(nl.add_input("a"), CheckError);  // duplicate name
}

TEST(Netlist, AreaAndHistogram) {
  SmallCircuit s;
  const double expected = s.nl.library()
                              .cell(s.nl.library().find("AND2"))
                              .area +
                          s.nl.library()
                              .cell(s.nl.library().find("OR2"))
                              .area +
                          s.nl.library().cell(s.nl.library().find("INV"))
                              .area;
  EXPECT_DOUBLE_EQ(s.nl.total_area(), expected);
  const auto hist = kind_histogram(s.nl);
  EXPECT_EQ(hist.size(), 3u);
}

TEST(Cones, TransitiveFaninAndFanout) {
  SmallCircuit s;
  const auto tfi = transitive_fanin(s.nl, s.nl.gate(s.g_inv).output);
  EXPECT_EQ(tfi.size(), 3u);
  const auto tfo = transitive_fanout(s.nl, s.a);
  EXPECT_EQ(tfo.size(), 3u);
  const auto tfo_c = transitive_fanout(s.nl, s.c);
  EXPECT_EQ(tfo_c.size(), 2u);  // OR and INV only
}

TEST(Cones, MffcOfSingleFanoutChain) {
  SmallCircuit s;
  // MFFC of the INV contains all three gates (each feeds only the next).
  const auto cone = mffc(s.nl, s.g_inv);
  EXPECT_EQ(cone.size(), 3u);
  // MFFC of the AND is just itself plus nothing below (inputs are PIs).
  const auto cone_and = mffc(s.nl, s.g_and);
  EXPECT_EQ(cone_and.size(), 1u);
}

TEST(Cones, MffcStopsAtSharedFanout) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const GateId shared = nl.add_gate_kind(CellKind::kAnd, {a, b});
  const NetId sh = nl.gate(shared).output;
  const GateId u1 = nl.add_gate_kind(CellKind::kInv, {sh});
  const GateId u2 = nl.add_gate_kind(CellKind::kOr, {sh, a});
  const GateId top =
      nl.add_gate_kind(CellKind::kAnd,
                       {nl.gate(u1).output, nl.gate(u2).output});
  nl.add_output(nl.gate(top).output, "f");
  const auto cone = mffc(nl, top);
  // u1 and u2 are single-fanout into top, but `shared` fans out to both,
  // converging only at top — so it IS in the MFFC of top.
  EXPECT_EQ(cone.size(), 4u);
  // MFFC of u1 is just u1 (its fanin `shared` also feeds u2).
  EXPECT_EQ(mffc(nl, u1).size(), 1u);
}

}  // namespace
}  // namespace odcfp
