#include "netlist/netlist.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "benchgen/benchmarks.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
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

// ---- topo_order: the smallest-ready-id Kahn order ----

/// Kahn's algorithm with a min-heap ready set: the order topo_order()
/// must produce. Returns fewer gates than are live on a cycle.
std::vector<GateId> reference_topo_order(const Netlist& nl) {
  std::vector<int> pending(nl.num_gates(), 0);
  std::priority_queue<GateId, std::vector<GateId>, std::greater<GateId>>
      ready;
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    if (nl.gate(g).is_dead()) continue;
    for (const NetId in : nl.gate(g).fanins) {
      if (nl.net(in).driver != kInvalidGate) ++pending[g];
    }
    if (pending[g] == 0) ready.push(g);
  }
  std::vector<GateId> order;
  while (!ready.empty()) {
    const GateId g = ready.top();
    ready.pop();
    order.push_back(g);
    for (const FanoutRef& ref : nl.net(nl.gate(g).output).fanouts) {
      if (--pending[ref.gate] == 0) ready.push(ref.gate);
    }
  }
  return order;
}

/// `n` buffers chained so that the ready set holds one gate at a time
/// and its id alternates between the two ends of the id range: 0, n-1,
/// 1, n-2, ... Each buffer starts on a PI of its own, so rewiring it
/// onto its chain predecessor detaches from a one-entry list.
Netlist alternating_chain(std::size_t n) {
  Netlist nl;
  for (std::size_t i = 0; i < n; ++i) {
    nl.add_gate_kind(CellKind::kBuf, {nl.add_input()});
  }
  GateId prev = 0;
  std::size_t low = 1, high = n - 1;
  for (std::size_t i = 1; i < n; ++i) {
    const auto g = static_cast<GateId>(i % 2 == 1 ? high-- : low++);
    nl.reconnect_pin(g, 0, nl.gate(prev).output);
    prev = g;
  }
  nl.add_output(nl.gate(prev).output, "out");
  return nl;
}

TEST(TopoOrder, MatchesAMinHeapKahnOnEveryBenchmark) {
  for (const std::string& name : benchmark_names()) {
    SCOPED_TRACE(name);
    const Netlist nl = make_benchmark(name);
    const std::vector<GateId> order = nl.topo_order();
    EXPECT_EQ(order.size(), nl.num_live_gates());
    EXPECT_EQ(order, reference_topo_order(nl));
  }
}

TEST(TopoOrder, AlternatingReadyIdsKeepTheKahnOrder) {
  constexpr std::size_t kGates = 20'000;
  const Netlist nl = alternating_chain(kGates);
  const std::vector<GateId> order = nl.topo_order();
  ASSERT_EQ(order.size(), kGates);
  EXPECT_EQ(order, reference_topo_order(nl));
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], kGates - 1);
  EXPECT_EQ(order[2], 1u);
  EXPECT_EQ(order[3], kGates - 2);
}

TEST(TopoOrder, CycleThrowsTheSameCheckError) {
  SmallCircuit s;
  // a & b now reads the inverter's output: and -> or -> inv -> and.
  s.nl.reconnect_pin(s.g_and, 0, s.nl.gate(s.g_inv).output);
  EXPECT_LT(reference_topo_order(s.nl).size(), s.nl.num_live_gates());
  try {
    s.nl.topo_order();
    ADD_FAILURE() << "a cycle must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "netlist contains a combinational cycle"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(s.nl.validate(), CheckError);
}

// ---- NetlistStore: the pin-list and name-table storage ----

/// `prefix` followed by `n` in decimal.
std::string numbered(const char* prefix, std::uint64_t n) {
  std::string name = prefix;
  name += std::to_string(n);
  return name;
}

template <class List>
auto as_vector(const List& list) {
  return std::vector<typename List::value_type>(list.begin(), list.end());
}

/// The default cells plus an AND6 (TruthTable::kMaxInputs inputs), so a
/// gate's fanins can outgrow the inline capacity.
const CellLibrary& library_with_and6() {
  static const CellLibrary lib = [] {
    CellLibrary l = default_cell_library();
    Cell and6 = l.cell(l.find_kind(CellKind::kAnd, 4));
    and6.name = "AND6";
    and6.function =
        make_kind_function(CellKind::kAnd, TruthTable::kMaxInputs);
    l.add(and6);
    return l;
  }();
  return lib;
}

/// A plain-vector mirror of a netlist's pin lists, names and ports,
/// updated by the same rules the netlist documents: pins attach at the end
/// of a fanout list and detach keeping the order of the rest.
struct StoreModel {
  std::vector<std::vector<NetId>> fanins;       // by gate; empty when dead
  std::vector<bool> dead;                       // by gate
  std::vector<std::string> gate_name;           // by gate
  std::vector<NetId> gate_out;                  // by gate
  std::vector<std::vector<FanoutRef>> fanouts;  // by net
  std::vector<std::string> net_name;            // by net
  std::vector<std::uint64_t> rank;              // by net; fanin < output
  std::vector<NetId> port_net;                  // by output port
  std::vector<std::string> retired;  // names renamed away or removed; the
                                     // test never hands a name out twice
  std::uint64_t next_rank = 0;

  void attach(GateId g, std::size_t pin) {
    fanouts[fanins[g][pin]].push_back({g, static_cast<std::uint8_t>(pin)});
  }
  void detach(GateId g, std::size_t pin) {
    auto& fo = fanouts[fanins[g][pin]];
    fo.erase(std::find(fo.begin(), fo.end(),
                       FanoutRef{g, static_cast<std::uint8_t>(pin)}));
  }
  void set_fanins(GateId g, const std::vector<NetId>& pins) {
    for (std::size_t p = 0; p < fanins[g].size(); ++p) detach(g, p);
    fanins[g] = pins;
    for (std::size_t p = 0; p < pins.size(); ++p) attach(g, p);
  }
  void reconnect(GateId g, std::size_t pin, NetId to) {
    detach(g, pin);
    fanins[g][pin] = to;
    attach(g, pin);
  }
  NetId add_net(std::string name) {
    fanouts.emplace_back();
    net_name.push_back(std::move(name));
    rank.push_back(next_rank++);
    return static_cast<NetId>(fanouts.size() - 1);
  }
};

void expect_matches(const Netlist& nl, const StoreModel& m,
                    const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(nl.num_gates(), m.fanins.size());
  ASSERT_EQ(nl.num_nets(), m.fanouts.size());
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    ASSERT_EQ(nl.gate(g).is_dead(), static_cast<bool>(m.dead[g])) << g;
    if (m.dead[g]) continue;
    ASSERT_EQ(as_vector(nl.gate(g).fanins), m.fanins[g]) << "gate " << g;
    ASSERT_EQ(nl.gate(g).output, m.gate_out[g]);
    ASSERT_EQ(nl.gate(g).name, m.gate_name[g]);
    ASSERT_EQ(nl.find_gate(m.gate_name[g]), g);
  }
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    ASSERT_EQ(as_vector(nl.net(n).fanouts), m.fanouts[n]) << "net " << n;
    ASSERT_EQ(nl.net(n).name, m.net_name[n]);
    ASSERT_EQ(nl.find_net(m.net_name[n]), n);
  }
  ASSERT_EQ(nl.outputs().size(), m.port_net.size());
  for (std::size_t i = 0; i < m.port_net.size(); ++i) {
    ASSERT_EQ(nl.outputs()[i].net, m.port_net[i]);
  }
  for (const std::string& name : m.retired) {
    ASSERT_EQ(nl.find_gate(name), kInvalidGate) << name;
    ASSERT_EQ(nl.find_net(name), kInvalidNet) << name;
  }
  ASSERT_EQ(nl.find_net("never_a_name"), kInvalidNet);
  ASSERT_EQ(nl.find_gate(""), kInvalidGate);
  nl.validate(/*allow_dangling=*/true);
  // The edits leave tombstones and ids out of topological order.
  ASSERT_EQ(nl.topo_order(), reference_topo_order(nl));
}

/// Seeded add / remove / rewire / reconnect / transfer / rename / port
/// edits on one netlist and its plain-vector model, compared as it goes,
/// then on a copy and after compact().
void run_store_differential(std::uint64_t seed) {
  SCOPED_TRACE(numbered("seed ", seed));
  const CellLibrary& lib = library_with_and6();
  const CellId cells[] = {lib.find_kind(CellKind::kInv, 1),
                          lib.find_kind(CellKind::kAnd, 2),
                          lib.find_kind(CellKind::kOr, 3),
                          lib.find_kind(CellKind::kNand, 4),
                          lib.find("AND6")};
  Netlist nl(&lib);
  StoreModel m;
  Rng rng(seed);
  constexpr std::size_t kInputs = 8;
  for (std::size_t i = 0; i < kInputs; ++i) {
    const std::string name = numbered("pi", i);
    ASSERT_EQ(nl.add_input(name), m.add_net(name));
  }
  std::uint64_t serial = 0;
  std::vector<GateId> live;
  // Fanins of a gate whose output has rank `below`: the first two inputs
  // are hubs read by many gates, so their fanout lists spill and shrink.
  auto pick_net = [&](std::uint64_t below) -> NetId {
    for (;;) {
      NetId n;
      if (rng.next_bool(0.35)) {
        n = static_cast<NetId>(rng.next_below(2));
      } else {
        n = static_cast<NetId>(rng.next_below(m.fanouts.size()));
      }
      const bool driven = n < kInputs || nl.net(n).driver != kInvalidGate;
      if (driven && m.rank[n] < below) return n;
    }
  };
  auto pick_fanins = [&](CellId cell, std::uint64_t below) {
    std::vector<NetId> pins(
        static_cast<std::size_t>(lib.cell(cell).num_inputs()));
    for (NetId& p : pins) p = pick_net(below);
    return pins;
  };
  auto pick_live = [&]() {
    return live[static_cast<std::size_t>(rng.next_below(live.size()))];
  };

  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t op = live.size() < 16 ? 0 : rng.next_below(100);
    if (op < 40) {  // add
      const CellId cell = cells[rng.next_below(std::size(cells))];
      const std::vector<NetId> pins = pick_fanins(cell, m.next_rank);
      const std::string gname = numbered("u", serial);
      const std::string nname = numbered("w", serial++);
      const GateId g = nl.add_gate(cell, pins, gname, nname);
      const NetId out = nl.gate(g).output;
      if (g == m.fanins.size()) {
        m.fanins.emplace_back();
        m.dead.push_back(false);
        m.gate_name.push_back(gname);
        m.gate_out.push_back(out);
      } else {
        ASSERT_TRUE(m.dead[g]);  // a tombstone is reused with its net
        ASSERT_EQ(out, m.gate_out[g]);
        m.dead[g] = false;
        m.gate_name[g] = gname;
      }
      if (out == m.fanouts.size()) {
        m.add_net(nname);
      } else {
        m.retired.push_back(m.net_name[out]);
        m.net_name[out] = nname;
        m.rank[out] = m.next_rank++;
      }
      m.set_fanins(g, pins);
      live.push_back(g);
    } else if (op < 55) {  // remove a gate nothing reads
      const GateId g = pick_live();
      const NetId out = m.gate_out[g];
      if (!m.fanouts[out].empty() || nl.net(out).num_output_ports != 0) {
        continue;
      }
      nl.remove_gate(g);
      m.set_fanins(g, {});
      m.dead[g] = true;
      m.retired.push_back(m.gate_name[g]);
      live.erase(std::find(live.begin(), live.end(), g));
    } else if (op < 65) {  // rewire, possibly onto its own pins
      const GateId g = pick_live();
      const CellId cell = cells[rng.next_below(std::size(cells))];
      if (rng.next_bool(0.2) &&
          lib.cell(cell).num_inputs() ==
              static_cast<int>(m.fanins[g].size())) {
        // The same pins, detached and attached again at the lists' ends.
        nl.rewire_gate(g, cell, nl.gate(g).fanins);
        m.set_fanins(g, std::vector<NetId>(m.fanins[g]));
      } else {
        const std::vector<NetId> pins =
            pick_fanins(cell, m.rank[m.gate_out[g]]);
        nl.rewire_gate(g, cell, pins);
        m.set_fanins(g, pins);
      }
    } else if (op < 80) {  // reconnect one pin
      const GateId g = pick_live();
      const std::size_t pin =
          static_cast<std::size_t>(rng.next_below(m.fanins[g].size()));
      const NetId to = pick_net(m.rank[m.gate_out[g]]);
      nl.reconnect_pin(g, static_cast<int>(pin), to);
      m.reconnect(g, pin, to);
    } else if (op < 88) {  // transfer every reader (and port) of a net
      const GateId g = pick_live();
      const NetId from = m.gate_out[g];
      const NetId to = pick_net(m.rank[from]);
      GateId except = kInvalidGate;
      if (!m.fanouts[from].empty() && rng.next_bool(0.3)) {
        except = m.fanouts[from][0].gate;
      }
      const std::vector<FanoutRef> sinks = m.fanouts[from];
      for (const FanoutRef& ref : sinks) {
        if (ref.gate != except) m.reconnect(ref.gate, ref.pin, to);
      }
      for (NetId& p : m.port_net) {
        if (p == from) p = to;
      }
      nl.transfer_fanouts_except(from, to, except);
    } else if (op < 95) {  // rename a net
      const NetId n = static_cast<NetId>(rng.next_below(m.fanouts.size()));
      const std::string name = numbered("r", serial++);
      m.retired.push_back(m.net_name[n]);
      nl.rename_net(n, name);
      m.net_name[n] = name;
      EXPECT_THROW(nl.rename_net(n, m.net_name[0] == name ? m.net_name[1]
                                                          : m.net_name[0]),
                   CheckError);
    } else {  // a port on a gate's output
      const GateId g = pick_live();
      nl.add_output(m.gate_out[g], numbered("port", serial++));
      m.port_net.push_back(m.gate_out[g]);
    }
    if (step % 100 == 99) {
      expect_matches(nl, m, numbered("step ", step));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  expect_matches(nl, m, "end");

  // Lists spilled and shrank on the way.
  std::size_t widest = 0;
  for (const auto& fo : m.fanouts) widest = std::max(widest, fo.size());
  EXPECT_GT(widest, 20u);
  std::size_t six = 0;
  for (GateId g = 0; g < m.fanins.size(); ++g) {
    if (!m.dead[g] && m.fanins[g].size() == TruthTable::kMaxInputs) ++six;
  }
  EXPECT_GT(six, 0u);

  const Netlist copy = nl;
  expect_matches(copy, m, "copy");

  // compact() renumbers gates; the model follows the returned map.
  const std::vector<GateId> remap = nl.compact();
  StoreModel packed = m;
  packed.fanins.clear();
  packed.dead.clear();
  packed.gate_name.clear();
  packed.gate_out.clear();
  for (GateId g = 0; g < m.fanins.size(); ++g) {
    if (m.dead[g]) {
      ASSERT_EQ(remap[g], kInvalidGate);
      continue;
    }
    ASSERT_EQ(remap[g], packed.fanins.size());
    packed.fanins.push_back(m.fanins[g]);
    packed.dead.push_back(false);
    packed.gate_name.push_back(m.gate_name[g]);
    packed.gate_out.push_back(m.gate_out[g]);
  }
  for (auto& fo : packed.fanouts) {
    for (FanoutRef& ref : fo) ref.gate = remap[ref.gate];
  }
  expect_matches(nl, packed, "compact");
  expect_matches(Netlist(nl), packed, "copy after compact");
  expect_matches(copy, m, "copy untouched by compact");
}

TEST(NetlistStore, PinListsAndLookupsMatchAVectorModel) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    run_store_differential(seed);
    if (HasFatalFailure()) return;
  }
}

TEST(NetlistStore, PinListSpillsShrinksAndCopies) {
  PinList<NetId> list;
  std::vector<NetId> model;
  Rng rng(11);
  for (int step = 0; step < 5000; ++step) {
    const std::uint64_t op = rng.next_below(10);
    if (op < 5 || model.empty()) {
      const auto v = static_cast<NetId>(rng.next_below(1000));
      list.push_back(v);
      model.push_back(v);
    } else if (op < 8) {
      const std::size_t i =
          static_cast<std::size_t>(rng.next_below(model.size()));
      list.erase(list.begin() + i);
      model.erase(model.begin() + static_cast<long>(i));
    } else if (op < 9) {
      const PinList<NetId> copy = list;
      ASSERT_EQ(as_vector(copy), model);
      ASSERT_EQ(copy.spilled(), model.size() > kInlinePins);
      PinList<NetId> moved = std::move(list);
      ASSERT_EQ(as_vector(moved), model);
      ASSERT_TRUE(list.empty());
      list = std::move(moved);
    } else {
      list.assign(std::span<const NetId>(list).first(list.size() / 2));
      model.resize(model.size() / 2);
    }
    ASSERT_EQ(as_vector(list), model) << "step " << step;
    ASSERT_EQ(list.size(), model.size());
  }
  const std::vector<NetId> six{1, 2, 3, 4, 5, 6};
  PinList<NetId> assigned;
  assigned.assign(six);
  EXPECT_TRUE(assigned.spilled());
  EXPECT_EQ(as_vector(assigned), six);
  assigned.assign(std::span(six).first(kInlinePins));
  EXPECT_EQ(as_vector(PinList<NetId>(assigned)),
            std::vector<NetId>(six.begin(), six.begin() + kInlinePins));
  EXPECT_FALSE(PinList<NetId>(assigned).spilled());
}

TEST(NetlistStore, NameTableMatchesAnUnorderedMap) {
  // Ids are indices into `names`; the table reads names through it.
  std::vector<std::string> names;
  auto name_of = [&](std::uint32_t id) -> const std::string& {
    return names[id];
  };
  NameTable table;
  std::unordered_map<std::string, std::uint32_t> ref;
  Rng rng(7);
  auto pool_name = [&] { return numbered("s", rng.next_below(1000)); };
  std::size_t inserts = 0, max_capacity = 0;
  for (int step = 0; step < 100000; ++step) {
    const std::uint64_t op = rng.next_below(10);
    if (op < 4) {  // insert
      const std::string name = pool_name();
      const auto id = static_cast<std::uint32_t>(names.size());
      const bool added = table.insert(name, id, name_of) == id;
      ASSERT_EQ(added, ref.count(name) == 0) << name;
      if (added) {
        names.push_back(name);
        ref.emplace(name, id);
        ++inserts;
      }
    } else if (op < 7) {  // erase
      const std::string name = pool_name();
      ASSERT_EQ(table.erase(name, name_of), ref.erase(name) == 1) << name;
    } else if (op < 8) {  // rename an id to a fresh name
      const std::string from = pool_name();
      const std::string to = pool_name();
      auto it = ref.find(from);
      if (it == ref.end() || ref.count(to) != 0) continue;
      const std::uint32_t id = it->second;
      ASSERT_TRUE(table.erase(from, name_of));
      names[id] = to;
      ASSERT_EQ(table.insert(to, id, name_of), id);
      ref.erase(it);
      ref.emplace(to, id);
    } else {  // lookup
      const std::string name = pool_name();
      auto it = ref.find(name);
      ASSERT_EQ(table.find(name, name_of),
                it == ref.end() ? NameTable::kNone : it->second)
          << name;
    }
    ASSERT_EQ(table.size(), ref.size());
    max_capacity = std::max(max_capacity, table.capacity());
  }
  for (const auto& [name, id] : ref) ASSERT_EQ(table.find(name, name_of), id);
  // Erased slots were reused: the table took several times more inserts
  // than it has slots, and its live size never passing the 1,000 names
  // of the pool kept it at 4,096 slots at most.
  EXPECT_GT(inserts, 3 * max_capacity);
  EXPECT_LE(max_capacity, 4096u);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.find(names.back(), name_of), NameTable::kNone);
}

TEST(NetlistStore, CopiesAreIndependent) {
  const Netlist original = make_benchmark("c880");
  const std::string signature = structural_signature(original);
  Netlist copy = original;
  ASSERT_EQ(structural_signature(copy), signature);

  // Edit the copy: a new gate on a high-fanout net, a removed gate, a
  // rewired gate, a transferred net and a renamed one.
  NetId wide = 0;
  for (NetId n = 0; n < copy.num_nets(); ++n) {
    if (copy.net(n).fanouts.size() > copy.net(wide).fanouts.size()) wide = n;
  }
  ASSERT_GT(copy.net(wide).fanouts.size(), kInlinePins);
  const GateId added =
      copy.add_gate_kind(CellKind::kInv, {wide}, "copy_only_inv");
  const GateId reader = copy.net(wide).fanouts[0].gate;
  const std::string reader_name = copy.gate(reader).name;
  copy.transfer_fanouts_except(wide, copy.gate(added).output, added);
  copy.rename_net(wide, "copy_only_net");
  GateId removable = kInvalidGate;
  for (GateId g = 0; g < copy.num_gates(); ++g) {
    const Net& out = copy.net(copy.gate(g).output);
    if (!copy.gate(g).is_dead() && out.fanouts.empty() &&
        out.num_output_ports == 0) {
      removable = g;
    }
  }
  if (removable != kInvalidGate) copy.remove_gate(removable);
  copy.validate(/*allow_dangling=*/true);

  EXPECT_EQ(structural_signature(original), signature);
  EXPECT_NE(structural_signature(copy), signature);
  EXPECT_EQ(original.find_gate("copy_only_inv"), kInvalidGate);
  EXPECT_EQ(original.find_net("copy_only_net"), kInvalidNet);
  EXPECT_EQ(original.find_net(original.net(wide).name), wide);
  EXPECT_EQ(original.find_gate(reader_name), reader);
  EXPECT_EQ(original.gate(reader).fanins,
            Netlist(original).gate(reader).fanins);
  original.validate();
}

TEST(NetlistStore, ConcurrentCopiesOfOneGolden) {
  // Pool workers copy and query one shared const golden at once: no const
  // method may write, so TSan sees only reads of `golden`.
  const Netlist golden = make_benchmark("c3540");
  const std::string signature = structural_signature(golden);
  std::vector<std::thread> threads;
  std::vector<int> mismatches(8, 0);
  for (std::size_t t = 0; t < mismatches.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        Netlist copy = golden;
        for (NetId n = static_cast<NetId>(t); n < golden.num_nets(); n += 3) {
          const std::string& name = golden.net(n).name;
          if (golden.find_net(name) != n || copy.find_net(name) != n) {
            ++mismatches[t];
          }
        }
        for (GateId g = 0; g < golden.num_gates(); ++g) {
          if (golden.gate(g).is_dead()) continue;
          const std::string& name = golden.gate(g).name;
          if (golden.find_gate(name) != g || copy.find_gate(name) != g) {
            ++mismatches[t];
          }
        }
        copy.rename_net(0, numbered("thread_", t));
        if (copy.find_net(golden.net(0).name) != kInvalidNet) ++mismatches[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < mismatches.size(); ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
  EXPECT_EQ(structural_signature(golden), signature);
}

}  // namespace
}  // namespace odcfp
