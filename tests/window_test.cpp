#include "odc/window.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <unordered_set>

#include "benchgen/benchmarks.hpp"
#include "common/atomic_io.hpp"
#include "odc/odc.hpp"

namespace odcfp {
namespace {

TEST(WindowOdc, SingleAndGateMatchesLocalOdc) {
  // f = AND(y, k): y is hidden exactly when k = 0 -> fraction 1/2.
  Netlist nl;
  const NetId y = nl.add_input("y");
  const NetId k = nl.add_input("k");
  const GateId g = nl.add_gate_kind(CellKind::kAnd, {y, k});
  nl.add_output(nl.gate(g).output, "f");
  const WindowOdcResult r = window_odc(nl, y, {.depth = 1});
  ASSERT_TRUE(r.computed);
  EXPECT_TRUE(r.output_closed);
  EXPECT_EQ(r.window_inputs, 1);
  EXPECT_DOUBLE_EQ(r.odc_fraction, 0.5);
}

TEST(WindowOdc, DeeperWindowsFindMoreDontCares) {
  // y -> INV -> AND(., k): through the inverter alone y is always
  // observable; one level deeper the AND hides it half the time.
  // This is the paper's "ODCs can be several layers deep".
  Netlist nl;
  const NetId y = nl.add_input("y");
  const NetId k = nl.add_input("k");
  const GateId gi = nl.add_gate_kind(CellKind::kInv, {y});
  const GateId ga = nl.add_gate_kind(CellKind::kAnd,
                                     {nl.gate(gi).output, k});
  nl.add_output(nl.gate(ga).output, "f");

  const WindowOdcResult shallow = window_odc(nl, y, {.depth = 1});
  ASSERT_TRUE(shallow.computed);
  EXPECT_FALSE(shallow.output_closed);  // INV output feeds the AND
  EXPECT_DOUBLE_EQ(shallow.odc_fraction, 0.0);

  const WindowOdcResult deep = window_odc(nl, y, {.depth = 2});
  ASSERT_TRUE(deep.computed);
  EXPECT_TRUE(deep.output_closed);
  EXPECT_DOUBLE_EQ(deep.odc_fraction, 0.5);
}

TEST(WindowOdc, Figure3Example) {
  // Paper Fig. 3: out = AND(AND(A, B), AND(C, m)) — when m = 0 the
  // bottom AND outputs 0 and the top AND blocks... we check the net
  // between the two ANDs: C is hidden whenever m = 0, plus whenever the
  // other AND side is 0.
  Netlist nl;
  const NetId a = nl.add_input("A");
  const NetId b = nl.add_input("B");
  const NetId c = nl.add_input("C");
  const NetId m = nl.add_input("m");
  const GateId top = nl.add_gate_kind(CellKind::kAnd, {a, b});
  const GateId bottom = nl.add_gate_kind(CellKind::kAnd, {c, m});
  const GateId out = nl.add_gate_kind(
      CellKind::kAnd, {nl.gate(top).output, nl.gate(bottom).output});
  nl.add_output(nl.gate(out).output, "f");

  // The depth-2 window of C contains {bottom, out}; its side variables
  // are m and the other AND's output t. C is visible only when m=1 and
  // t=1 -> hidden fraction = 3/4.
  const WindowOdcResult r = window_odc(nl, c, {.depth = 2});
  ASSERT_TRUE(r.computed);
  EXPECT_TRUE(r.output_closed);
  EXPECT_EQ(r.window_inputs, 2);
  EXPECT_DOUBLE_EQ(r.odc_fraction, 3.0 / 4.0);
}

TEST(WindowOdc, MatchesSimulatedObservabilityWhenClosed) {
  // For a PI of a small circuit with the whole fanout in the window and
  // independent side inputs, 1 - odc_fraction == simulated observability.
  Netlist nl;
  const NetId x = nl.add_input("x");
  const NetId u = nl.add_input("u");
  const NetId v = nl.add_input("v");
  const GateId g1 = nl.add_gate_kind(CellKind::kOr, {x, u});
  const GateId g2 = nl.add_gate_kind(CellKind::kAnd,
                                     {nl.gate(g1).output, v});
  nl.add_output(nl.gate(g2).output, "f");
  const WindowOdcResult r = window_odc(nl, x, {.depth = 4});
  ASSERT_TRUE(r.computed);
  ASSERT_TRUE(r.output_closed);
  const double sim = simulated_observability(nl, x, 512, 7);
  EXPECT_NEAR(1.0 - r.odc_fraction, sim, 0.03);
}

TEST(WindowOdc, UnreadNetIsFullyHidden) {
  Netlist nl;
  const NetId x = nl.add_input("x");
  const NetId y = nl.add_input("y");
  const GateId g = nl.add_gate_kind(CellKind::kInv, {x});
  nl.add_output(nl.gate(g).output, "f");
  const WindowOdcResult r = window_odc(nl, y, {.depth = 2});
  ASSERT_TRUE(r.computed);
  EXPECT_DOUBLE_EQ(r.odc_fraction, 1.0);
}

TEST(WindowOdc, OutputPortNetIsNeverHidden) {
  // y = AND(a, b) drives port y and z = AND(y, c) drives port z: each is
  // observed at its own port, so neither is ever hidden, at any depth.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  const NetId y = nl.gate(nl.add_gate_kind(CellKind::kAnd, {a, b})).output;
  const NetId z = nl.gate(nl.add_gate_kind(CellKind::kAnd, {y, c})).output;
  nl.add_output(y, "y");
  nl.add_output(z, "z");
  for (int depth = 1; depth <= 3; ++depth) {
    for (const NetId net : {y, z}) {
      const WindowOdcResult r = window_odc(nl, net, {.depth = depth});
      ASSERT_TRUE(r.computed);
      EXPECT_TRUE(r.output_closed);
      EXPECT_DOUBLE_EQ(r.odc_fraction, 0.0)
          << "net " << net << " depth " << depth;
      EXPECT_DOUBLE_EQ(1.0 - r.odc_fraction,
                       simulated_observability(nl, net, 8, 1));
    }
  }
}

TEST(WindowOdc, GivesUpGracefullyOnWideWindows) {
  const Netlist nl = make_benchmark("c880");
  // Some depth-6 windows in an ALU exceed kMaxWindowInputs.
  WindowOptions opt;
  opt.depth = 6;
  std::size_t computed = 0, skipped = 0;
  for (NetId n = 0; n < nl.num_nets() && n < 60; ++n) {
    const WindowOdcResult r = window_odc(nl, n, opt);
    (r.computed ? computed : skipped)++;
  }
  EXPECT_GT(skipped, 0u);
}

TEST(WindowSdc, DetectsComplementCorrelation) {
  // g = AND(x, INV(x)): patterns (0,0) and (1,1) can never occur.
  Netlist nl;
  const NetId x = nl.add_input("x");
  const GateId inv = nl.add_gate_kind(CellKind::kInv, {x});
  const GateId g = nl.add_gate_kind(CellKind::kAnd,
                                    {x, nl.gate(inv).output});
  nl.add_output(nl.gate(g).output, "f");
  const WindowSdcResult r = window_sdc(nl, g, {.depth = 2});
  ASSERT_TRUE(r.computed);
  EXPECT_EQ(r.num_patterns, 4);
  EXPECT_EQ(r.impossible_patterns, 2);
}

TEST(WindowSdc, IndependentInputsHaveNoSdc) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const GateId g = nl.add_gate_kind(CellKind::kNand, {a, b});
  nl.add_output(nl.gate(g).output, "f");
  const WindowSdcResult r = window_sdc(nl, g, {.depth = 3});
  ASSERT_TRUE(r.computed);
  EXPECT_EQ(r.impossible_patterns, 0);
}

TEST(WindowSdc, ReconvergentAndTree) {
  // t = AND(a, b); g = AND(t, a): pattern (t=1, a=0) is impossible.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const GateId t = nl.add_gate_kind(CellKind::kAnd, {a, b});
  const GateId g = nl.add_gate_kind(CellKind::kAnd,
                                    {nl.gate(t).output, a});
  nl.add_output(nl.gate(g).output, "f");
  const WindowSdcResult r = window_sdc(nl, g, {.depth = 2});
  ASSERT_TRUE(r.computed);
  EXPECT_EQ(r.impossible_patterns, 1);
}

TEST(WindowSdc, SixInputGateMasksAllPatterns) {
  // AND6(i0, i1, i2, i3, i4, INV(i0)): pins 0 and 5 always differ, so the
  // 32 patterns with bit 0 == bit 5 are impossible, half of them at
  // p >= 32.
  static const CellLibrary lib = [] {
    CellLibrary l = default_cell_library();
    l.add(Cell{"AND6", CellKind::kAnd, make_kind_function(CellKind::kAnd, 6),
               1.0, 0.1, 0.1, 1.0, 1.0});
    return l;
  }();
  Netlist nl(&lib);
  std::vector<NetId> pins;
  for (const char* name : {"i0", "i1", "i2", "i3", "i4"}) {
    pins.push_back(nl.add_input(name));
  }
  pins.push_back(nl.gate(nl.add_gate_kind(CellKind::kInv, {pins[0]})).output);
  const GateId g = nl.add_gate(lib.find("AND6"), pins);
  nl.add_output(nl.gate(g).output, "f");
  const WindowSdcResult r = window_sdc(nl, g, {.depth = 1});
  ASSERT_TRUE(r.computed);
  EXPECT_EQ(r.num_patterns, 64);
  EXPECT_EQ(r.impossible_patterns, 32);
  EXPECT_EQ(r.impossible_mask, 0xAAAA'AAAA'5555'5555ull);
}

TEST(WindowSdc, BenchmarksHaveSomeSdcGates) {
  const Netlist nl = make_benchmark("c432");
  WindowOptions opt;
  opt.depth = 3;
  std::size_t with_sdc = 0, computed = 0;
  const auto order = nl.topo_order();
  for (std::size_t i = 0; i < order.size(); i += 3) {
    const WindowSdcResult r = window_sdc(nl, order[i], opt);
    if (!r.computed) continue;
    ++computed;
    if (r.impossible_patterns > 0) ++with_sdc;
    EXPECT_LT(r.impossible_patterns, r.num_patterns);
  }
  EXPECT_GT(computed, 10u);
  EXPECT_GT(with_sdc, 0u);
}

// Pins every field window_odc reports for every net, and every field
// window_sdc reports for every live gate, as per-circuit CRC-32s over
// depths 1-3. Nets that drive an output port fold into a CRC of their
// own. A missing or wrong entry fails with the line to paste.
using Digests = std::map<std::string, std::uint32_t>;

const Digests& pinned_window_digests() {
  static const Digests d = {
      {"odc/c1908", 0x3a60f33bu},
      {"odc/c432", 0xc5d87b29u},
      {"odc/c880", 0x1f778c50u},
      {"odc/vda", 0x902be043u},
      {"port/c1908", 0x6122ba5bu},
      {"port/c432", 0xe9a4a7bau},
      {"port/c880", 0x9cc38346u},
      {"port/vda", 0xf605337au},
      {"sdc/c1908", 0x1cd546fbu},
      {"sdc/c432", 0x5ff0c155u},
      {"sdc/c880", 0x49b09a72u},
      {"sdc/vda", 0x31599798u},
  };
  return d;
}

template <typename T>
void fold(atomic_io::Crc32& crc, T value) {
  char bytes[sizeof value];
  std::memcpy(bytes, &value, sizeof value);
  crc.update(std::string_view(bytes, sizeof bytes));
}

TEST(WindowDigest, EveryFieldOfEveryWindowIsPinned) {
  for (const char* circuit : {"c432", "c880", "c1908", "vda"}) {
    const Netlist nl = make_benchmark(circuit);
    std::unordered_set<NetId> port_nets;
    for (const OutputPort& po : nl.outputs()) port_nets.insert(po.net);
    atomic_io::Crc32 odc, port, sdc;
    for (int depth = 1; depth <= 3; ++depth) {
      const WindowOptions options{.depth = depth};
      for (NetId n = 0; n < nl.num_nets(); ++n) {
        const WindowOdcResult r = window_odc(nl, n, options);
        atomic_io::Crc32& crc = port_nets.count(n) ? port : odc;
        fold(crc, static_cast<std::uint8_t>(r.computed));
        fold(crc, std::bit_cast<std::uint64_t>(r.odc_fraction));
        fold(crc, static_cast<std::uint8_t>(r.output_closed));
        fold(crc, static_cast<std::uint8_t>(r.degraded));
        fold(crc, static_cast<std::int32_t>(r.status));
        fold(crc, static_cast<std::int32_t>(r.window_inputs));
        fold(crc, static_cast<std::uint64_t>(r.window_gates));
      }
      for (GateId g = 0; g < nl.num_gates(); ++g) {
        if (nl.gate(g).is_dead()) continue;
        const WindowSdcResult r = window_sdc(nl, g, options);
        fold(sdc, static_cast<std::uint8_t>(r.computed));
        fold(sdc, static_cast<std::uint8_t>(r.degraded));
        fold(sdc, static_cast<std::int32_t>(r.status));
        fold(sdc, static_cast<std::int32_t>(r.num_patterns));
        fold(sdc, static_cast<std::int32_t>(r.impossible_patterns));
        fold(sdc, static_cast<std::uint64_t>(r.impossible_mask));
        fold(sdc, static_cast<std::int32_t>(r.cone_inputs));
      }
    }
    const std::pair<const char*, std::uint32_t> got[] = {
        {"odc", odc.value()}, {"port", port.value()}, {"sdc", sdc.value()}};
    for (const auto& [kind, value] : got) {
      const std::string key = std::string(kind) + "/" + circuit;
      char line[64];
      std::snprintf(line, sizeof line, "{\"%s\", 0x%08xu},", key.c_str(),
                    static_cast<unsigned>(value));
      const auto it = pinned_window_digests().find(key);
      if (it == pinned_window_digests().end()) {
        ADD_FAILURE() << "no pinned digest: " << line;
      } else {
        EXPECT_EQ(it->second, value) << "digest changed: " << line;
      }
    }
  }
}

}  // namespace
}  // namespace odcfp
