#include "fingerprint/embedder.hpp"

#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

#include "benchgen/benchmarks.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "equiv/cec.hpp"
#include "io/verilog.hpp"

namespace odcfp {
namespace {

// The embedder borrows its location list: a named list binds, a temporary
// one (which would dangle after the constructor) does not compile.
static_assert(std::is_constructible_v<FingerprintEmbedder, Netlist&,
                                      const std::vector<FingerprintLocation>&>);
static_assert(!std::is_constructible_v<FingerprintEmbedder, Netlist&,
                                       std::vector<FingerprintLocation>&&>);

/// Every single-site modification option, applied alone, must preserve the
/// circuit function — checked exhaustively per option on a small circuit.
TEST(Embedder, EveryOptionPreservesFunctionOnC432) {
  const Netlist golden = make_benchmark("c432");
  const auto locs = find_locations(golden);
  ASSERT_FALSE(locs.empty());
  Netlist work = golden;
  FingerprintEmbedder e(work, locs);
  std::size_t options_checked = 0;
  for (std::size_t l = 0; l < locs.size(); ++l) {
    for (std::size_t s = 0; s < locs[l].sites.size(); ++s) {
      for (std::size_t o = 1; o <= locs[l].sites[s].options.size(); ++o) {
        e.apply(l, s, static_cast<int>(o));
        ASSERT_TRUE(random_sim_equal(golden, work, 8, 1234 + o))
            << "loc " << l << " site " << s << " option " << o;
        e.remove(l, s);
        ++options_checked;
      }
    }
  }
  EXPECT_GT(options_checked, 100u);
  // After removing everything, the netlist is functionally intact and
  // structurally clean (no fp gates left alive).
  for (GateId g = 0; g < work.num_gates(); ++g) {
    if (work.gate(g).is_dead()) continue;
    EXPECT_EQ(work.gate(g).name.rfind("fp_", 0), std::string::npos);
  }
  EXPECT_TRUE(random_sim_equal(golden, work, 32, 5));
}

TEST(Embedder, ApplyRemoveRestoresExactStructure) {
  const Netlist golden = make_benchmark("c880");
  const auto locs = find_locations(golden);
  Netlist work = golden;
  const std::string before = to_verilog_string(work);
  FingerprintEmbedder e(work, locs);
  e.apply_all_generic();
  EXPECT_NE(to_verilog_string(work), before);
  e.remove_all();
  EXPECT_EQ(to_verilog_string(work), before);
  work.validate(/*allow_dangling=*/true);
}

TEST(Embedder, RemoveInAnyOrder) {
  const Netlist golden = make_benchmark("c432");
  const auto locs = find_locations(golden);
  Netlist work = golden;
  const std::string before = to_verilog_string(work);
  FingerprintEmbedder e(work, locs);
  e.apply_all_generic();
  // Remove in a shuffled order; structure must return to golden.
  Rng rng(7);
  std::vector<std::size_t> order(e.num_sites());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  for (std::size_t f : order) {
    const auto ref = e.site_ref(f);
    e.remove(ref.loc, ref.site);
    work.validate(/*allow_dangling=*/true);
  }
  EXPECT_EQ(to_verilog_string(work), before);
}

TEST(Embedder, AppliedOptionBookkeeping) {
  const Netlist golden = make_benchmark("c17");
  const auto locs = find_locations(golden);
  ASSERT_FALSE(locs.empty());
  Netlist work = golden;
  FingerprintEmbedder e(work, locs);
  EXPECT_EQ(e.num_applied(), 0u);
  e.apply(0, 0, 1);
  EXPECT_EQ(e.applied_option(0, 0), 1);
  EXPECT_EQ(e.num_applied(), 1u);
  std::vector<GateId> touched{kInvalidGate};
  e.touched_gates(0, 0, touched);
  ASSERT_FALSE(touched.empty());
  EXPECT_EQ(touched[0], locs[0].sites[0].gate);  // replaced, not appended
  EXPECT_THROW(e.apply(0, 0, 1), CheckError);  // double apply
  e.remove(0, 0);
  EXPECT_EQ(e.applied_option(0, 0), 0);
  e.touched_gates(0, 0, touched);
  EXPECT_TRUE(touched.empty());
  e.remove(0, 0);  // no-op
  EXPECT_EQ(e.num_applied(), 0u);
  EXPECT_THROW(e.apply(0, 0, 99), CheckError);  // bad option
}

TEST(Embedder, CodeRoundTripThroughExtraction) {
  for (const char* name : {"c432", "c880", "c1908"}) {
    const Netlist golden = make_benchmark(name);
    const auto locs = find_locations(golden);
    Rng rng(99);
    for (int trial = 0; trial < 3; ++trial) {
      // Random code.
      FingerprintCode code = blank_code(locs);
      for (std::size_t l = 0; l < locs.size(); ++l) {
        for (std::size_t s = 0; s < locs[l].sites.size(); ++s) {
          code[l][s] = static_cast<std::uint8_t>(rng.next_below(
              locs[l].sites[s].options.size() + 1));
        }
      }
      Netlist work = golden;
      FingerprintEmbedder e(work, locs);
      e.apply_code(code);
      EXPECT_EQ(e.current_code(), code);
      // Functional safety.
      ASSERT_TRUE(random_sim_equal(golden, work, 16, 5 + trial)) << name;
      // Designer-side extraction recovers the code exactly.
      const FingerprintCode extracted = extract_code(work, golden, locs);
      EXPECT_EQ(extracted, code) << name << " trial " << trial;
    }
  }
}

TEST(Embedder, ExtractionSurvivesVerilogRoundTrip) {
  const Netlist golden = make_benchmark("c880");
  const auto locs = find_locations(golden);
  Rng rng(3);
  FingerprintCode code = blank_code(locs);
  for (std::size_t l = 0; l < locs.size(); ++l) {
    for (std::size_t s = 0; s < locs[l].sites.size(); ++s) {
      code[l][s] = static_cast<std::uint8_t>(
          rng.next_below(locs[l].sites[s].options.size() + 1));
    }
  }
  Netlist work = golden;
  FingerprintEmbedder e(work, locs);
  e.apply_code(code);
  const Netlist shipped =
      read_verilog_string(to_verilog_string(work), golden.library());
  EXPECT_EQ(extract_code(shipped, golden, locs), code);
}

TEST(Embedder, LenientExtractionReportsDamage) {
  const Netlist golden = make_benchmark("c432");
  const auto locs = find_locations(golden);
  Netlist work = golden;
  FingerprintEmbedder e(work, locs);
  e.apply_all_generic();

  // Vandalize one site: give its gate an unknown extra literal by
  // swapping the injected pin to a different net.
  const InjectionSite& S0 = locs[0].sites[0];
  const GateId g2 = work.find_gate(golden.gate(S0.gate).name);
  ASSERT_NE(g2, kInvalidGate);
  const int last = static_cast<int>(work.gate(g2).fanins.size()) - 1;
  // Point the injected pin at some unrelated PI.
  work.reconnect_pin(g2, last, work.inputs()[0]);

  const LenientExtraction ext = extract_code_lenient(work, golden, locs);
  EXPECT_GE(ext.damaged, 1u);
  EXPECT_EQ(ext.recovered + ext.damaged, total_sites(locs));
  bool found_unknown = false;
  for (const auto& per_loc : ext.status) {
    for (SiteReadStatus st : per_loc) {
      if (st == SiteReadStatus::kUnknownMod) found_unknown = true;
    }
  }
  EXPECT_TRUE(found_unknown);
  // Strict extraction throws on the same netlist.
  EXPECT_THROW(extract_code(work, golden, locs), CheckError);

  // A fully intact netlist reports zero damage.
  Netlist clean = golden;
  FingerprintEmbedder e2(clean, locs);
  e2.apply_all_generic();
  const LenientExtraction ok = extract_code_lenient(clean, golden, locs);
  EXPECT_EQ(ok.damaged, 0u);
  EXPECT_EQ(ok.code, e2.current_code());
}

TEST(Embedder, InterleavedApplyRemoveOrdersRestoreStructure) {
  // Regression for remove_all()'s restoration contract: arbitrary
  // interleavings of apply and remove — including re-applying sites that
  // were just removed, with different options — must leave remove_all()
  // able to restore the exact golden structure, compared name-wise via
  // structural_signature (id-numbering independent, so it also holds in
  // Release builds where the internal ODCFP_DCHECK is compiled out).
  const Netlist golden = make_benchmark("c432");
  const auto locs = find_locations(golden);
  Netlist work = golden;
  const std::string golden_sig = structural_signature(work);
  FingerprintEmbedder e(work, locs);

  Rng rng(2026);
  std::vector<int> applied(e.num_sites(), 0);
  for (int step = 0; step < 400; ++step) {
    const std::size_t f = rng.next_below(e.num_sites());
    const auto ref = e.site_ref(f);
    if (applied[f] != 0) {
      e.remove(ref.loc, ref.site);
      applied[f] = 0;
    } else {
      const auto& options = locs[ref.loc].sites[ref.site].options;
      const int option =
          1 + static_cast<int>(rng.next_below(options.size()));
      e.apply(ref.loc, ref.site, option);
      applied[f] = option;
    }
    if (step % 50 == 0) work.validate(/*allow_dangling=*/true);
  }
  // Whatever ended up applied still preserves function.
  EXPECT_TRUE(random_sim_equal(golden, work, 16, 11));
  e.remove_all();
  EXPECT_EQ(e.num_applied(), 0u);
  EXPECT_EQ(structural_signature(work), golden_sig);
}

TEST(Embedder, SignatureDetectsResidue) {
  // structural_signature must actually distinguish a modified netlist —
  // otherwise the restoration checks above prove nothing.
  const Netlist golden = make_benchmark("c17");
  const auto locs = find_locations(golden);
  ASSERT_FALSE(locs.empty());
  Netlist work = golden;
  const std::string golden_sig = structural_signature(work);
  FingerprintEmbedder e(work, locs);
  e.apply(0, 0, 1);
  EXPECT_NE(structural_signature(work), golden_sig);
  e.remove(0, 0);
  EXPECT_EQ(structural_signature(work), golden_sig);
}

TEST(Embedder, WideSiteFallsBackToAppend) {
  // A 4-input AND site cannot widen (no AND5 in the library): the
  // modification must append a gate and still preserve function.
  Netlist nl;
  std::vector<NetId> ins;
  for (int i = 0; i < 4; ++i) {
    ins.push_back(nl.add_input("i" + std::to_string(i)));
  }
  const NetId x1 = nl.add_input("x1");
  const NetId x2 = nl.add_input("x2");
  const GateId gy = nl.add_gate_kind(CellKind::kAnd, ins, "gy");
  const GateId gx = nl.add_gate_kind(CellKind::kAnd, {x1, x2}, "gx");
  const GateId gf = nl.add_gate_kind(
      CellKind::kAnd, {nl.gate(gy).output, nl.gate(gx).output}, "gf");
  nl.add_output(nl.gate(gf).output, "f");

  const auto locs = find_locations(nl);
  ASSERT_EQ(locs.size(), 1u);
  ASSERT_EQ(locs[0].sites[0].gate, gy);
  const Netlist golden = nl;
  FingerprintEmbedder e(nl, locs);
  e.apply(0, 0, 1);
  // gy keeps its cell; an appended fp gate carries the literal.
  EXPECT_EQ(nl.gate(gy).fanins.size(), 4u);
  bool found_append = false;
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    if (!nl.gate(g).is_dead() &&
        nl.gate(g).name.rfind(kAddedGatePrefix, 0) == 0) {
      found_append = true;
    }
  }
  EXPECT_TRUE(found_append);
  EXPECT_TRUE(exhaustive_equal(golden, nl));
  EXPECT_EQ(extract_code(nl, golden, locs)[0][0], 1);
}

TEST(Embedder, InverterSitesWidenToNand) {
  // Y = INV(e) site: the generic change turns it into NAND2(e, L).
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId e0 = nl.add_input("e");
  const GateId gx = nl.add_gate_kind(CellKind::kAnd, {a, b}, "gx");
  const GateId gy = nl.add_gate_kind(CellKind::kInv, {e0}, "gy");
  const GateId gf = nl.add_gate_kind(
      CellKind::kAnd, {nl.gate(gy).output, nl.gate(gx).output}, "gf");
  nl.add_output(nl.gate(gf).output, "f");
  const Netlist golden = nl;
  const auto locs = find_locations(nl);
  ASSERT_EQ(locs.size(), 1u);
  FingerprintEmbedder emb(nl, locs);
  emb.apply(0, 0, 1);  // generic
  EXPECT_EQ(nl.cell_of(gy).kind, CellKind::kNand);
  EXPECT_EQ(nl.gate(gy).fanins.size(), 2u);
  EXPECT_TRUE(exhaustive_equal(golden, nl));
  emb.remove(0, 0);
  EXPECT_EQ(nl.cell_of(gy).kind, CellKind::kInv);
  EXPECT_TRUE(exhaustive_equal(golden, nl));
}

TEST(Embedder, ReusesExistingInverters) {
  // OR-class site with trigger value 0 needs the complemented literal; a
  // pre-existing inverter on the trigger net must be reused (no fp_inv).
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId e0 = nl.add_input("e");
  const NetId e1 = nl.add_input("e1");
  const GateId gy = nl.add_gate_kind(CellKind::kOr, {e0, e1}, "gy");
  // Primary is AND: trigger value 0. Site gy is OR-like: literal must be
  // 0 when trigger==1... i.e. inverted trigger.
  const GateId gf =
      nl.add_gate_kind(CellKind::kAnd, {nl.gate(gy).output, a}, "gf");
  nl.add_output(nl.gate(gf).output, "f");
  // Existing inverter on the trigger net `a`.
  const GateId inv = nl.add_gate_kind(CellKind::kInv, {a}, "pre_inv");
  nl.add_output(nl.gate(inv).output, "g");

  const Netlist golden = nl;
  const auto locs = find_locations(nl);
  ASSERT_EQ(locs.size(), 1u);
  ASSERT_EQ(locs[0].sites[0].inject_class, InjectClass::kOrLike);
  ASSERT_TRUE(locs[0].sites[0].options[0].invert);
  FingerprintEmbedder emb(nl, locs);
  emb.apply(0, 0, 1);
  // No new inverter was created.
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    if (nl.gate(g).is_dead()) continue;
    EXPECT_NE(nl.gate(g).name.rfind(kInverterPrefix, 0), 0u);
  }
  // The widened OR reads the pre-existing inverter's output.
  EXPECT_EQ(nl.gate(gy).fanins.size(), 3u);
  EXPECT_EQ(nl.gate(gy).fanins[2], nl.gate(inv).output);
  EXPECT_TRUE(exhaustive_equal(golden, nl));
  EXPECT_EQ(extract_code(nl, golden, locs)[0][0], 1);
}

}  // namespace
}  // namespace odcfp
