// IncrementalCecSession and the batch verification paths built on it.
//
// The load-bearing property (and the reason this suite is in the TSan
// regex): for every (circuit, edition) pair, the batch sessions at any
// thread count and the budgeted checker run edition by edition must
// produce identical verdict statuses — and every reported
// counterexample, whichever path found it, must actually distinguish the
// two circuits under simulation. (Counterexample bits may legitimately
// differ between paths: distinct searches find distinct models.) A
// session check that exhausts its quota escalates to that same budgeted
// checker under the same quota.
#include "equiv/cec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "benchgen/benchmarks.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "fingerprint/batch.hpp"
#include "sim/simulator.hpp"

namespace odcfp {
namespace {

/// f = a & ~b, with PIs declared in the given order. The function is
/// asymmetric on purpose: wiring the PIs positionally instead of by name
/// would flip the verdict, which is exactly what the permuted-interface
/// tests pin.
Netlist a_and_not_b(bool declare_b_first) {
  Netlist nl(&default_cell_library(), "a_and_not_b");
  NetId a, b;
  if (declare_b_first) {
    b = nl.add_input("b");
    a = nl.add_input("a");
  } else {
    a = nl.add_input("a");
    b = nl.add_input("b");
  }
  const GateId inv = nl.add_gate_kind(CellKind::kInv, {b});
  const GateId g = nl.add_gate_kind(CellKind::kAnd,
                                    {a, nl.gate(inv).output});
  nl.add_output(nl.gate(g).output, "f");
  return nl;
}

/// Simulates `pattern` (in a's PI order) on both circuits and reports
/// whether any name-matched output pair disagrees.
bool cex_distinguishes(const Netlist& a, const Netlist& b,
                       const std::vector<bool>& pattern) {
  EXPECT_EQ(pattern.size(), a.inputs().size());
  Simulator sa(a), sb(b);
  for (std::size_t i = 0; i < a.inputs().size(); ++i) {
    const std::uint64_t word = pattern[i] ? ~0ull : 0ull;
    sa.set_input_word(i, word);
    const std::string& name = a.net(a.inputs()[i]).name;
    for (std::size_t j = 0; j < b.inputs().size(); ++j) {
      if (b.net(b.inputs()[j]).name == name) sb.set_input_word(j, word);
    }
  }
  sa.run();
  sb.run();
  for (const OutputPort& pa : a.outputs()) {
    for (const OutputPort& pb : b.outputs()) {
      if (pa.name != pb.name) continue;
      if ((sa.value(pa.net) & 1) != (sb.value(pb.net) & 1)) return true;
    }
  }
  return false;
}

/// The default cells with the ids of AND2 and OR2 swapped, so one CellId
/// names AND2 in the default library and OR2 here.
const CellLibrary& and_or_swapped_library() {
  static const CellLibrary lib = [] {
    const CellLibrary& base = default_cell_library();
    const CellId and2 = base.find_kind(CellKind::kAnd, 2);
    const CellId or2 = base.find_kind(CellKind::kOr, 2);
    CellLibrary swapped;
    for (CellId id = 0; id < base.size(); ++id) {
      swapped.add(base.cell(id == and2 ? or2 : id == or2 ? and2 : id));
    }
    return swapped;
  }();
  return lib;
}

/// Turns the first NAND2 of `nl` into a NOR2: a real functional change.
void corrupt_first_nand2(Netlist& nl) {
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    if (nl.gate(g).is_dead()) continue;
    if (nl.cell_of(g).kind == CellKind::kNand &&
        nl.cell_of(g).num_inputs() == 2) {
      nl.rewire_gate(g, nl.library().find_kind(CellKind::kNor, 2),
                     nl.gate(g).fanins);
      return;
    }
  }
}

/// Gives one random live gate of `nl` another cell of the same arity and a
/// different function: usually a real change, masked when an ODC hides
/// that gate.
void swap_random_cell(Netlist& nl, Rng& rng) {
  const CellLibrary& lib = nl.library();
  for (;;) {
    const auto g = static_cast<GateId>(rng.next_below(nl.num_gates()));
    if (nl.gate(g).is_dead()) continue;
    const Cell& old = nl.cell_of(g);
    std::vector<CellId> options;
    for (CellId id = 0; id < lib.size(); ++id) {
      if (lib.cell(id).num_inputs() == old.num_inputs() &&
          lib.cell(id).function != old.function) {
        options.push_back(id);
      }
    }
    if (options.empty()) continue;
    nl.rewire_gate(g, options[rng.next_below(options.size())],
                   nl.gate(g).fanins);
    return;
  }
}

struct Fixture {
  Netlist golden = make_benchmark("c880");
  StaticTimingAnalyzer sta;
  PowerAnalyzer power;
  std::vector<FingerprintLocation> locs = find_locations(golden);
  Codebook book{locs, 6, 17};

  BatchResult stamp() {
    BatchOptions opt;
    opt.max_delay_overhead = 0;
    return batch_fingerprint(golden, book, sta, power, opt);
  }
};

TEST(IncrementalCec, SessionProvesCloneEditionsEquivalent) {
  Fixture f;
  const BatchResult batch = f.stamp();
  IncrementalCecSession session(f.golden);
  for (const BuyerEdition& e : batch.editions) {
    const CecResult r = session.check(e.netlist);
    EXPECT_EQ(r.status, CecResult::Status::kEquivalent);
    EXPECT_EQ(r.method, "sat-incremental");
  }
  EXPECT_EQ(session.checks(), batch.editions.size());
  // Each edit re-merges with the golden at its cut point, so only the
  // gates between an edit and its cut point are encoded fresh: reuse must
  // outweigh fresh encoding, or the sweep stopped merging and every edit
  // fell back to re-encoding its whole transitive fanout.
  EXPECT_GT(session.merges(), 0u);
  EXPECT_GT(session.gates_reused(), session.gates_encoded());
}

TEST(IncrementalCec, RepeatedEditionIsAnsweredByTheMemo) {
  // The second check of the same edition repeats every sweep candidate
  // of the first, so the memo answers all of them: no solve runs, no new
  // merge is proven, and the verdict and method stay those of a proof.
  Fixture f;
  const BatchResult batch = f.stamp();
  ASSERT_FALSE(batch.editions.empty());
  const Netlist& edition = batch.editions[0].netlist;
  IncrementalCecSession session(f.golden);
  const CecResult first = session.check(edition);
  ASSERT_EQ(first.status, CecResult::Status::kEquivalent);
  ASSERT_GT(session.merges(), 0u);
  const std::size_t merges = session.merges();
  const std::size_t hits = session.memo_hits();

  const CecResult second = session.check(edition);
  EXPECT_EQ(second.status, CecResult::Status::kEquivalent);
  EXPECT_EQ(second.method, "sat-incremental");
  const sat::Solver::Stats& stats = second.sat_stats;
  EXPECT_EQ(stats.decisions + stats.propagations + stats.conflicts +
                stats.restarts + stats.learned_clauses,
            0u);
  EXPECT_EQ(session.merges(), merges);
  EXPECT_GT(session.memo_hits(), hits);
}

TEST(IncrementalCec, SessionFindsRealCounterexamples) {
  // Corrupt each edition by inverting one stamped net's fanout; the
  // session must refute it with a counterexample that simulation
  // confirms, and keep answering correctly on the next check.
  Fixture f;
  const BatchResult batch = f.stamp();
  IncrementalCecSession session(f.golden);
  for (const BuyerEdition& e : batch.editions) {
    Netlist bad = e.netlist;
    corrupt_first_nand2(bad);
    const CecResult r = session.check(bad);
    ASSERT_EQ(r.status, CecResult::Status::kDifferent);
    EXPECT_TRUE(cex_distinguishes(f.golden, bad, r.counterexample));
  }
}

TEST(IncrementalCec, IdenticalCloneIsTriviallyEquivalent) {
  // A byte-identical clone reuses every cone: the degenerate empty edit
  // cone is answered without a solve, with its own diagnostic.
  const Netlist golden = make_benchmark("c432");
  const Netlist clone = make_benchmark("c432");
  IncrementalCecSession session(golden);
  const CecResult r = session.check(clone);
  EXPECT_EQ(r.status, CecResult::Status::kEquivalent);
  EXPECT_EQ(r.method, "trivial-identical-cone");
  EXPECT_EQ(r.sat_stats.conflicts, 0u);
}

TEST(IncrementalCec, NoOutputsIsTriviallyEquivalent) {
  Netlist golden(&default_cell_library(), "g");
  golden.add_input("x");
  Netlist edition(&default_cell_library(), "e");
  edition.add_input("x");
  IncrementalCecSession session(golden);
  const CecResult r = session.check(edition);
  EXPECT_EQ(r.status, CecResult::Status::kEquivalent);
  EXPECT_EQ(r.method, "trivial-no-outputs");
}

TEST(IncrementalCec, ZeroConflictQuotaReturnsUnknown) {
  // A quota the first sub-query cannot even start is an escalation
  // signal, never a fabricated verdict. The first edition is a
  // structurally different implementation, so the check cannot
  // short-circuit through structural reuse.
  Netlist golden(&default_cell_library(), "flat");
  {
    const NetId a = golden.add_input("a");
    const NetId b = golden.add_input("b");
    const NetId c = golden.add_input("c");
    const GateId g = golden.add_gate_kind(CellKind::kAnd, {a, b, c});
    golden.add_output(golden.gate(g).output, "f");
  }
  Netlist tree(&default_cell_library(), "tree");
  {
    const NetId a = tree.add_input("a");
    const NetId b = tree.add_input("b");
    const NetId c = tree.add_input("c");
    const GateId g1 = tree.add_gate_kind(CellKind::kNand, {a, b});
    const GateId g2 = tree.add_gate_kind(CellKind::kInv,
                                         {tree.gate(g1).output});
    const GateId g3 = tree.add_gate_kind(CellKind::kAnd,
                                         {tree.gate(g2).output, c});
    tree.add_output(tree.gate(g3).output, "f");
  }
  IncrementalCecSession::Options options;
  options.conflict_limit = 0;
  IncrementalCecSession session(golden, options);
  const CecResult r = session.check(tree);
  EXPECT_EQ(r.status, CecResult::Status::kUnknown);

  // The same check with an honest quota proves equivalence — the
  // session stays healthy after a quota-exhausted answer.
  IncrementalCecSession generous(golden);
  EXPECT_EQ(generous.check(tree).status, CecResult::Status::kEquivalent);

  // A fingerprinted clone resolves every output through cut points, so
  // its only queries are sweep queries: they draw on the same spent
  // quota and must escalate too.
  Fixture f;
  const BatchResult batch = f.stamp();
  ASSERT_FALSE(batch.editions.empty());
  const Netlist& edition = batch.editions[0].netlist;
  IncrementalCecSession clone_session(f.golden, options);
  EXPECT_EQ(clone_session.check(edition).status,
            CecResult::Status::kUnknown);
  EXPECT_EQ(clone_session.merges(), 0u);
  IncrementalCecSession clone_generous(f.golden);
  const CecResult proven = clone_generous.check(edition);
  EXPECT_EQ(proven.status, CecResult::Status::kEquivalent);
  EXPECT_EQ(proven.method, "sat-incremental");
}

TEST(IncrementalCec, QueryConeFollowsFreshFaninsOutsideTheGoldenCone) {
  // Golden f = a & b. The edition gates f with ~t, where t reads c and d,
  // which are outside f's golden cone. With t = (c ^ d) & (c XNOR d),
  // constant 0, the edition is equivalent, but only a search that also
  // branches on c or d can see it: with a = b = 1 and t = 1, propagation
  // stops at c ^ d = 1 and c XNOR d = 1 without a conflict. With
  // t = (c ^ d) | (c XNOR d), constant 1, the edition is refuted, and any
  // values of c and d complete the counterexample.
  Netlist golden(&default_cell_library(), "gated_and");
  const NetId a = golden.add_input("a");
  const NetId b = golden.add_input("b");
  const NetId c = golden.add_input("c");
  const NetId d = golden.add_input("d");
  const GateId f = golden.add_gate_kind(CellKind::kAnd, {a, b});
  golden.add_output(golden.gate(f).output, "f");
  const auto gated = [&](CellKind t_kind) {
    Netlist edition = golden;
    const NetId x = edition.gate(edition.add_gate_kind(CellKind::kXor,
                                                       {c, d})).output;
    const NetId y = edition.gate(edition.add_gate_kind(CellKind::kXnor,
                                                       {c, d})).output;
    const NetId t = edition.gate(edition.add_gate_kind(t_kind, {x, y})).output;
    const NetId not_t =
        edition.gate(edition.add_gate_kind(CellKind::kInv, {t})).output;
    edition.rewire_gate(f, edition.library().find_kind(CellKind::kAnd, 3),
                        {a, b, not_t});
    return edition;
  };
  IncrementalCecSession session(golden);
  EXPECT_EQ(session.check(gated(CellKind::kAnd)).status,
            CecResult::Status::kEquivalent);
  const Netlist broken = gated(CellKind::kOr);
  const CecResult r = session.check(broken);
  ASSERT_EQ(r.status, CecResult::Status::kDifferent);
  EXPECT_TRUE(cex_distinguishes(golden, broken, r.counterexample));
}

TEST(IncrementalCec, SignatureCollisionIsRefutedNotMerged) {
  // The clone replaces a 32-input AND with constant 0. The two differ
  // only on the all-ones input, which random patterns miss, so their
  // simulation signatures match and the sweep asks the solver: SAT must
  // keep the fresh net unmerged and the check must refute the edition.
  Netlist golden(&default_cell_library(), "wide_and");
  std::vector<NetId> level;
  for (int i = 0; i < 32; ++i) {
    std::string name = "x";
    name += std::to_string(i);
    level.push_back(golden.add_input(name));
  }
  GateId root = kInvalidGate;
  while (level.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i < level.size(); i += 4) {
      const std::size_t n = std::min<std::size_t>(4, level.size() - i);
      const std::vector<NetId> ins(level.begin() + i, level.begin() + i + n);
      root = golden.add_gate_kind(CellKind::kAnd, ins);
      next.push_back(golden.gate(root).output);
    }
    level = std::move(next);
  }
  golden.add_output(level[0], "f");

  Netlist clone = golden;
  clone.rewire_gate(root, clone.library().find_kind(CellKind::kConst0, 0),
                    {});
  ASSERT_TRUE(random_sim_equal(golden, clone, 64, 7));

  IncrementalCecSession session(golden);
  const CecResult r = session.check(clone);
  ASSERT_EQ(r.status, CecResult::Status::kDifferent);
  EXPECT_EQ(r.method, "sat-incremental");
  EXPECT_TRUE(cex_distinguishes(golden, clone, r.counterexample));
  EXPECT_EQ(session.merges(), 0u);
  EXPECT_EQ(session.memo_hits(), 0u);

  // The memo remembers the refutation, not a merge: the second check
  // skips the sweep query and still refutes the clone at the output.
  const CecResult again = session.check(clone);
  ASSERT_EQ(again.status, CecResult::Status::kDifferent);
  EXPECT_TRUE(cex_distinguishes(golden, clone, again.counterexample));
  EXPECT_EQ(session.merges(), 0u);
  EXPECT_EQ(session.memo_hits(), 1u);
}

TEST(IncrementalCec, CorrelationBeyondTheWindowFallsBackToSat) {
  // Golden f = a & b, plus two golden chains from PI p: x, six inverters
  // deep (x = p), and y, seven deep (y = ~p). The edition ANDs x | y,
  // constant 1, into f. Within four levels the window never reaches p, so
  // x and y stay independent free leaves, the tables differ at
  // x = y = 0, and the merge needs the SAT query.
  Netlist golden(&default_cell_library(), "sdc_chains");
  const NetId a = golden.add_input("a");
  const NetId b = golden.add_input("b");
  const NetId p = golden.add_input("p");
  const auto chain = [&](int depth) {
    NetId net = p;
    for (int i = 0; i < depth; ++i) {
      net = golden.gate(golden.add_gate_kind(CellKind::kInv, {net})).output;
    }
    return net;
  };
  const NetId x = chain(6);
  const NetId y = chain(7);
  const GateId f = golden.add_gate_kind(CellKind::kAnd, {a, b});
  golden.add_output(golden.gate(f).output, "f");
  golden.add_output(x, "x");
  golden.add_output(y, "y");

  Netlist edition = golden;
  const NetId x_or_y =
      edition.gate(edition.add_gate_kind(CellKind::kOr, {x, y})).output;
  edition.rewire_gate(f, edition.library().find_kind(CellKind::kAnd, 3),
                      {a, b, x_or_y});

  IncrementalCecSession session(golden);
  const CecResult r = session.check(edition);
  EXPECT_EQ(r.status, CecResult::Status::kEquivalent);
  EXPECT_EQ(r.method, "sat-incremental");
  EXPECT_EQ(session.merges(), 1u);
  EXPECT_EQ(session.window_merges(), 0u);
}

TEST(IncrementalCec, WindowKeepsEveryLeaf) {
  // Golden f = AND4 of four 8-input ANDs; the edition drops the fourth.
  // They differ only where three wide ANDs are 1 and the fourth is 0,
  // which random patterns miss, so the signatures collide. The window
  // over {w0, w1, w2, w3} must see w3 and refuse the merge: a window that
  // dropped that leaf would compare AND3 with AND3 and merge wrongly.
  Netlist golden(&default_cell_library(), "and4_of_wide_ands");
  std::vector<NetId> wide;
  for (int w = 0; w < 4; ++w) {
    std::vector<NetId> halves;
    for (int h = 0; h < 2; ++h) {
      std::vector<NetId> ins;
      for (int i = 0; i < 4; ++i) {
        std::string name = "x";
        name += std::to_string(8 * w + 4 * h + i);
        ins.push_back(golden.add_input(name));
      }
      halves.push_back(
          golden.gate(golden.add_gate_kind(CellKind::kAnd, ins)).output);
    }
    wide.push_back(
        golden.gate(golden.add_gate_kind(CellKind::kAnd, halves)).output);
  }
  const GateId root = golden.add_gate_kind(CellKind::kAnd, wide);
  golden.add_output(golden.gate(root).output, "f");

  Netlist edition = golden;
  edition.rewire_gate(root, edition.library().find_kind(CellKind::kAnd, 3),
                      {wide[0], wide[1], wide[2]});
  ASSERT_TRUE(random_sim_equal(golden, edition, 64, 7));

  IncrementalCecSession session(golden);
  const CecResult r = session.check(edition);
  ASSERT_EQ(r.status, CecResult::Status::kDifferent);
  EXPECT_TRUE(cex_distinguishes(golden, edition, r.counterexample));
  EXPECT_EQ(session.merges(), 0u);
  EXPECT_EQ(session.window_merges(), 0u);
}

class IncrementalCecWindowCoverage
    : public ::testing::TestWithParam<std::string> {};

TEST_P(IncrementalCecWindowCoverage, WindowsProveMostMerges) {
  // Over every site at 6 buyers, windows prove at least 90% of the cut
  // points. A window silently disabled would leave every verdict and the
  // merges() total unchanged, so only this share can catch it.
  const Netlist golden = make_benchmark(GetParam());
  StaticTimingAnalyzer sta;
  PowerAnalyzer power;
  const std::vector<FingerprintLocation> locs = find_locations(golden);
  const Codebook book(locs, 6, 17);
  BatchOptions opt;
  opt.max_delay_overhead = 0;
  const BatchResult batch = batch_fingerprint(golden, book, sta, power, opt);
  IncrementalCecSession session(golden);
  for (const BuyerEdition& e : batch.editions) {
    ASSERT_EQ(session.check(e.netlist).status, CecResult::Status::kEquivalent);
  }
  ASSERT_GT(session.merges(), 0u);
  EXPECT_GE(10 * session.window_merges(), 9 * session.merges())
      << session.window_merges() << " of " << session.merges();
}

INSTANTIATE_TEST_SUITE_P(Circuits, IncrementalCecWindowCoverage,
                         ::testing::Values("c880", "c3540"));

TEST(IncrementalCec, EqualCellIdsAcrossLibrariesAreNotReused) {
  // A CellId indexes its own netlist's library. The edition's gate has
  // the golden AND2's id, but in its library that id is OR2: the edition
  // must be encoded fresh and refuted, on the session and batch paths.
  Netlist golden(&default_cell_library(), "and2");
  {
    const NetId a = golden.add_input("a");
    const NetId b = golden.add_input("b");
    const GateId g = golden.add_gate_kind(CellKind::kAnd, {a, b});
    golden.add_output(golden.gate(g).output, "y");
  }
  BuyerEdition e;
  e.netlist = Netlist(&and_or_swapped_library(), "or2");
  {
    Netlist& nl = e.netlist;
    const NetId a = nl.add_input("a");
    const NetId b = nl.add_input("b");
    const GateId g = nl.add_gate_kind(CellKind::kOr, {a, b});
    nl.add_output(nl.gate(g).output, "y");
    ASSERT_EQ(nl.gate(g).cell, golden.gate(g).cell);
  }
  ASSERT_EQ(verify_equivalence(golden, e.netlist).status,
            CecResult::Status::kDifferent);

  IncrementalCecSession session(golden);
  const CecResult r = session.check(e.netlist);
  ASSERT_EQ(r.status, CecResult::Status::kDifferent);
  EXPECT_EQ(r.method, "sat-incremental");
  EXPECT_TRUE(cex_distinguishes(golden, e.netlist, r.counterexample));

  const std::vector<Outcome<CecResult>> verdicts =
      batch_verify_equivalence(golden, {e}, BatchCecOptions{});
  ASSERT_EQ(verdicts.size(), 1u);
  ASSERT_TRUE(verdicts[0].ok());
  ASSERT_EQ(verdicts[0].value().status, CecResult::Status::kDifferent);
  EXPECT_TRUE(cex_distinguishes(golden, e.netlist,
                                verdicts[0].value().counterexample));
}

TEST(IncrementalCec, MemoKeysByFunctionNotCellId) {
  // Golden: y = AND2(a, ~~b), z = AND2(a, c). Edition one (default
  // library) computes y as AND2(a, b), a fresh gate the sweep merges into
  // golden y, and breaks z. Edition two (AND2/OR2 ids swapped) computes y
  // as OR2(a, b) through the very CellId of edition one's AND2. A memo
  // keyed by CellId would merge it from edition one's verdict; keyed by
  // function it gets its own node, and the edition is refuted.
  const auto build = [](const CellLibrary* lib, CellKind y_kind,
                        CellKind z_kind, bool y_reads_b) {
    Netlist nl(lib, "two_outputs");
    const NetId a = nl.add_input("a");
    const NetId b = nl.add_input("b");
    const NetId c = nl.add_input("c");
    const GateId nb = nl.add_gate_kind(CellKind::kInv, {b});
    const GateId bb = nl.add_gate_kind(CellKind::kInv, {nl.gate(nb).output});
    const GateId y = nl.add_gate_kind(
        y_kind, {a, y_reads_b ? b : nl.gate(bb).output});
    const GateId z = nl.add_gate_kind(z_kind, {a, c});
    nl.add_output(nl.gate(y).output, "y");
    nl.add_output(nl.gate(z).output, "z");
    return nl;
  };
  const Netlist golden = build(&default_cell_library(), CellKind::kAnd,
                               CellKind::kAnd, false);
  const Netlist merges_y = build(&default_cell_library(), CellKind::kAnd,
                                 CellKind::kNand, true);
  const Netlist swapped_y = build(&and_or_swapped_library(), CellKind::kOr,
                                  CellKind::kAnd, true);
  const GateId y_gate = 2;
  ASSERT_EQ(merges_y.gate(y_gate).cell, swapped_y.gate(y_gate).cell);

  IncrementalCecSession session(golden);
  const CecResult first = session.check(merges_y);
  ASSERT_EQ(first.status, CecResult::Status::kDifferent);
  EXPECT_TRUE(cex_distinguishes(golden, merges_y, first.counterexample));
  ASSERT_EQ(session.merges(), 1u);

  const CecResult second = session.check(swapped_y);
  ASSERT_EQ(second.status, CecResult::Status::kDifferent);
  EXPECT_TRUE(cex_distinguishes(golden, swapped_y, second.counterexample));
  EXPECT_EQ(session.memo_hits(), 0u);
}

TEST(IncrementalCec, PermutedInterfaceVerifiesByName) {
  // The edition declares its PIs in the opposite order but names them
  // identically, and implements ~b with different gates so nothing can
  // be structurally reused: the proof must run through PI vars shared by
  // the name-matched map, not positionally, or this asymmetric function
  // flips verdict.
  Netlist permuted(&default_cell_library(), "permuted");
  const NetId b = permuted.add_input("b");
  const NetId a = permuted.add_input("a");
  const GateId nb = permuted.add_gate_kind(CellKind::kNand, {b, b});
  const GateId g = permuted.add_gate_kind(CellKind::kAnd,
                                          {a, permuted.gate(nb).output});
  permuted.add_output(permuted.gate(g).output, "f");

  const Netlist golden = a_and_not_b(false);
  IncrementalCecSession session(golden);
  const CecResult r = session.check(permuted);
  EXPECT_EQ(r.status, CecResult::Status::kEquivalent);
  EXPECT_EQ(r.method, "sat-incremental");
}

TEST(IncrementalCec, PermutedInterfaceStillRefutesRealDifferences) {
  // Same declaration permutation, but the edition genuinely computes
  // b & ~a: the session must refute it, with a simulation-confirmed
  // counterexample.
  Netlist swapped(&default_cell_library(), "b_and_not_a");
  const NetId b = swapped.add_input("b");
  const NetId a = swapped.add_input("a");
  const GateId inv = swapped.add_gate_kind(CellKind::kInv, {a});
  const GateId g = swapped.add_gate_kind(
      CellKind::kAnd, {b, swapped.gate(inv).output});
  swapped.add_output(swapped.gate(g).output, "f");

  const Netlist golden = a_and_not_b(false);
  IncrementalCecSession session(golden);
  const CecResult r = session.check(swapped);
  ASSERT_EQ(r.status, CecResult::Status::kDifferent);
  EXPECT_TRUE(cex_distinguishes(golden, swapped, r.counterexample));
}

TEST(IncrementalCec, VerdictsIdenticalAcrossPathsAndThreadCounts) {
  // Every (circuit, edition) pair yields the same verdict status from the
  // batch sessions at 1/2/8 threads as from verify_equivalence_budgeted
  // run edition by edition on the buyer's own seed. One edition is
  // corrupted so both verdict polarities are exercised.
  Fixture f;
  BatchResult batch = f.stamp();
  ASSERT_GE(batch.editions.size(), 4u);
  corrupt_first_nand2(batch.editions[2].netlist);

  std::vector<CecResult::Status> reference;
  for (std::size_t i = 0; i < batch.editions.size(); ++i) {
    const BuyerEdition& e = batch.editions[i];
    BudgetedCecOptions cec;
    cec.seed = e.seed;
    const Outcome<CecResult> v =
        verify_equivalence_budgeted(f.golden, e.netlist, nullptr, cec);
    ASSERT_TRUE(v.ok()) << "budgeted edition " << i;
    reference.push_back(v.value().status);
    if (v.value().status == CecResult::Status::kDifferent) {
      EXPECT_TRUE(cex_distinguishes(f.golden, e.netlist,
                                    v.value().counterexample))
          << "budgeted edition " << i;
    }
  }
  EXPECT_EQ(reference[2], CecResult::Status::kDifferent);

  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    BatchCecOptions opt;
    opt.pool = &pool;
    const auto verdicts =
        batch_verify_equivalence(f.golden, batch.editions, opt);
    ASSERT_EQ(verdicts.size(), batch.editions.size());
    std::vector<CecResult::Status> statuses;
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      ASSERT_TRUE(verdicts[i].ok()) << threads << " threads, edition " << i;
      const CecResult& r = verdicts[i].value();
      statuses.push_back(r.status);
      if (r.status == CecResult::Status::kDifferent) {
        EXPECT_TRUE(cex_distinguishes(f.golden, batch.editions[i].netlist,
                                      r.counterexample))
            << threads << " threads, edition " << i;
      }
    }
    EXPECT_EQ(statuses, reference) << threads << " threads";
  }
}

TEST(IncrementalCec, QuotaDeathEscalatesToBudgetedChecker) {
  // A zero conflict quota lets no session check prove anything, so every
  // edition escalates to verify_equivalence_budgeted under the same
  // quota. Its SAT stage cannot run either: clean editions end in the
  // simulation fallback with a partial confidence, and the corrupted one
  // is refuted by the up-front simulation filter.
  Fixture f;
  BatchResult batch = f.stamp();
  ASSERT_GE(batch.editions.size(), 4u);
  corrupt_first_nand2(batch.editions[2].netlist);

  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    BatchCecOptions opt;
    opt.pool = &pool;
    opt.cec.sat_conflict_limit = 0;
    const auto verdicts =
        batch_verify_equivalence(f.golden, batch.editions, opt);
    ASSERT_EQ(verdicts.size(), batch.editions.size());
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      SCOPED_TRACE(std::to_string(threads) + " threads, edition " +
                   std::to_string(i));
      const Outcome<CecResult>& v = verdicts[i];
      ASSERT_TRUE(v.has_value());
      if (i == 2) {
        ASSERT_TRUE(v.ok());
        EXPECT_EQ(v.value().status, CecResult::Status::kDifferent);
        EXPECT_EQ(v.value().method, "random-sim");
        EXPECT_TRUE(cex_distinguishes(f.golden, batch.editions[i].netlist,
                                      v.value().counterexample));
      } else {
        EXPECT_EQ(v.status(), Status::kExhausted);
        EXPECT_EQ(v.value().method, "sat+sim-fallback");
        EXPECT_GT(v.confidence(), 0.0);
        EXPECT_LT(v.confidence(), 1.0);
      }
    }
  }
}

TEST(IncrementalCec, SessionVerdictsMatchLegacyPerEdition) {
  // Direct session-vs-legacy agreement without the batch layer, so a
  // batch-layer bug cannot mask a session one.
  Fixture f;
  const BatchResult batch = f.stamp();
  IncrementalCecSession session(f.golden);
  for (const BuyerEdition& e : batch.editions) {
    const CecResult inc = session.check(e.netlist);
    const CecResult legacy = verify_equivalence(f.golden, e.netlist);
    EXPECT_EQ(inc.status, legacy.status);
  }
}

class IncrementalCecDifferential
    : public ::testing::TestWithParam<std::string> {};

TEST_P(IncrementalCecDifferential, SessionAgreesWithFullMiter) {
  // Each query branches only inside the fanin cone of the two nets it
  // compares, so a cone that missed a fanin would answer kSat on a
  // partial assignment that no full model extends, or hand back a
  // counterexample that does not distinguish the circuits. One session
  // checks every stamped edition, every other one with a random cell
  // swap, against a fresh full-miter solver.
  const Netlist golden = make_benchmark(GetParam());
  StaticTimingAnalyzer sta;
  PowerAnalyzer power;
  const std::vector<FingerprintLocation> locs = find_locations(golden);
  const Codebook book(locs, 8, 29);
  BatchOptions opt;
  opt.max_delay_overhead = 0;
  BatchResult batch = batch_fingerprint(golden, book, sta, power, opt);
  ASSERT_EQ(batch.editions.size(), 8u);

  Rng rng(0x5eed'd1ffull);
  IncrementalCecSession session(golden);
  std::size_t different = 0;
  for (std::size_t i = 0; i < batch.editions.size(); ++i) {
    SCOPED_TRACE("edition " + std::to_string(i));
    Netlist& edition = batch.editions[i].netlist;
    if (i % 2 == 1) swap_random_cell(edition, rng);
    const CecResult inc = session.check(edition);
    const CecResult ref = check_equivalence_sat(golden, edition);
    ASSERT_NE(ref.status, CecResult::Status::kUnknown);
    EXPECT_EQ(inc.status, ref.status);
    if (inc.status == CecResult::Status::kDifferent) {
      ++different;
      EXPECT_TRUE(cex_distinguishes(golden, edition, inc.counterexample));
    }
    if (ref.status == CecResult::Status::kDifferent) {
      EXPECT_TRUE(cex_distinguishes(golden, edition, ref.counterexample));
    }
  }
  EXPECT_GT(different, 0u);
}

INSTANTIATE_TEST_SUITE_P(Circuits, IncrementalCecDifferential,
                         ::testing::Values("c432", "c880", "c1908", "c3540",
                                           "i8"));

}  // namespace
}  // namespace odcfp
