#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "benchgen/benchmarks.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "sat/tseitin.hpp"
#include "sim/simulator.hpp"

namespace odcfp::sat {
namespace {

TEST(Lit, EncodingRoundTrips) {
  const Lit p = pos_lit(5);
  EXPECT_EQ(p.var(), 5);
  EXPECT_FALSE(p.negated());
  EXPECT_TRUE((~p).negated());
  EXPECT_EQ((~~p), p);
  EXPECT_EQ(Lit::from_code(p.code()), p);
}

TEST(Solver, TrivialSatAndUnsat) {
  Solver s;
  const Var x = s.new_var();
  EXPECT_TRUE(s.add_clause(pos_lit(x)));
  EXPECT_EQ(s.solve(), Solver::Result::kSat);
  EXPECT_TRUE(s.model_value(x));
  EXPECT_FALSE(s.add_clause(neg_lit(x)));  // conflict at level 0
  EXPECT_EQ(s.solve(), Solver::Result::kUnsat);
}

TEST(Solver, UnitPropagationChain) {
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 10; ++i) v.push_back(s.new_var());
  // x0; x_i -> x_{i+1}; finally !x9 makes it UNSAT.
  s.add_clause(pos_lit(v[0]));
  for (int i = 0; i + 1 < 10; ++i) {
    s.add_clause(neg_lit(v[static_cast<std::size_t>(i)]),
                 pos_lit(v[static_cast<std::size_t>(i + 1)]));
  }
  EXPECT_EQ(s.solve(), Solver::Result::kSat);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(s.model_value(v[static_cast<std::size_t>(i)]));
  }
  s.add_clause(neg_lit(v[9]));
  EXPECT_EQ(s.solve(), Solver::Result::kUnsat);
}

TEST(Solver, TautologyAndDuplicatesHandled) {
  Solver s;
  const Var x = s.new_var();
  const Var y = s.new_var();
  EXPECT_TRUE(s.add_clause({pos_lit(x), neg_lit(x), pos_lit(y)}));
  EXPECT_TRUE(s.add_clause({pos_lit(y), pos_lit(y)}));
  EXPECT_EQ(s.solve(), Solver::Result::kSat);
  EXPECT_TRUE(s.model_value(y));
}

TEST(Solver, XorChainRequiresSearch) {
  // x0 ^ x1 = 1, x1 ^ x2 = 1, ..., and x0 = xN: satisfiable iff N even.
  for (int n : {4, 5}) {
    Solver s;
    std::vector<Var> v;
    for (int i = 0; i <= n; ++i) v.push_back(s.new_var());
    auto add_xor1 = [&s](Var a, Var b) {
      // a ^ b = 1  <=>  (a | b) & (!a | !b)
      s.add_clause(pos_lit(a), pos_lit(b));
      s.add_clause(neg_lit(a), neg_lit(b));
    };
    for (int i = 0; i < n; ++i) {
      add_xor1(v[static_cast<std::size_t>(i)],
               v[static_cast<std::size_t>(i + 1)]);
    }
    // Tie the ends equal.
    s.add_clause(neg_lit(v[0]),
                 pos_lit(v[static_cast<std::size_t>(n)]));
    s.add_clause(pos_lit(v[0]),
                 neg_lit(v[static_cast<std::size_t>(n)]));
    EXPECT_EQ(s.solve(), n % 2 == 0 ? Solver::Result::kSat
                                    : Solver::Result::kUnsat)
        << n;
  }
}

/// Pigeonhole principle: n+1 pigeons in n holes is UNSAT and requires
/// real conflict-driven search.
void add_php(Solver& s, int pigeons, int holes,
             std::vector<std::vector<Var>>& p) {
  p.assign(static_cast<std::size_t>(pigeons), {});
  for (int i = 0; i < pigeons; ++i) {
    for (int j = 0; j < holes; ++j) {
      p[static_cast<std::size_t>(i)].push_back(s.new_var());
    }
  }
  for (int i = 0; i < pigeons; ++i) {
    std::vector<Lit> clause;
    for (int j = 0; j < holes; ++j) {
      clause.push_back(pos_lit(p[static_cast<std::size_t>(i)]
                                [static_cast<std::size_t>(j)]));
    }
    s.add_clause(clause);
  }
  for (int j = 0; j < holes; ++j) {
    for (int i1 = 0; i1 < pigeons; ++i1) {
      for (int i2 = i1 + 1; i2 < pigeons; ++i2) {
        s.add_clause(neg_lit(p[static_cast<std::size_t>(i1)]
                              [static_cast<std::size_t>(j)]),
                     neg_lit(p[static_cast<std::size_t>(i2)]
                              [static_cast<std::size_t>(j)]));
      }
    }
  }
}

TEST(Solver, PigeonholeUnsat) {
  for (int holes : {3, 4, 5, 6}) {
    Solver s;
    std::vector<std::vector<Var>> p;
    add_php(s, holes + 1, holes, p);
    EXPECT_EQ(s.solve(), Solver::Result::kUnsat) << holes;
    EXPECT_GT(s.stats().conflicts, 0u);
  }
}

TEST(Solver, PigeonholeExactFitSat) {
  Solver s;
  std::vector<std::vector<Var>> p;
  add_php(s, 5, 5, p);
  EXPECT_EQ(s.solve(), Solver::Result::kSat);
  // Verify the model is a valid assignment.
  for (int i = 0; i < 5; ++i) {
    int count = 0;
    for (int j = 0; j < 5; ++j) {
      count += s.model_value(p[static_cast<std::size_t>(i)]
                              [static_cast<std::size_t>(j)]);
    }
    EXPECT_GE(count, 1);
  }
}

TEST(Solver, StatsDifferenceSaturatesAtZero) {
  Solver::Stats before;
  before.decisions = 10;
  before.conflicts = 7;
  before.restarts = 1;
  Solver::Stats after;
  after.decisions = 25;
  after.conflicts = 3;  // solver was replaced: live counter is behind
  after.propagations = 4;

  const Solver::Stats delta = after - before;
  EXPECT_EQ(delta.decisions, 15u);
  EXPECT_EQ(delta.propagations, 4u);
  // A wrapped uint64 here would poison every cumulative sum downstream;
  // the honest floor for "went backwards across a restart" is zero.
  EXPECT_EQ(delta.conflicts, 0u);
  EXPECT_EQ(delta.restarts, 0u);
  EXPECT_EQ(delta.learned_clauses, 0u);
}

TEST(Solver, ConflictLimitReturnsUnknown) {
  Solver s;
  std::vector<std::vector<Var>> p;
  add_php(s, 9, 8, p);  // hard enough to exceed one conflict
  EXPECT_EQ(s.solve({}, /*conflict_limit=*/1), Solver::Result::kUnknown);

  // A limit of 0 answers before the search reaches its first conflict.
  EXPECT_EQ(s.solve({}, /*conflict_limit=*/0), Solver::Result::kUnknown);
  EXPECT_EQ(s.last_call_stats().conflicts, 0u);
  EXPECT_EQ(s.last_call_stats().learned_clauses, 0u);
}

TEST(Solver, Assumptions) {
  Solver s;
  const Var x = s.new_var();
  const Var y = s.new_var();
  s.add_clause(neg_lit(x), pos_lit(y));   // x -> y
  s.add_clause(neg_lit(x), neg_lit(y));   // x -> !y
  EXPECT_EQ(s.solve({pos_lit(x)}), Solver::Result::kUnsat);
  EXPECT_EQ(s.solve({neg_lit(x)}), Solver::Result::kSat);
  // Solver is reusable after assumption solving.
  EXPECT_EQ(s.solve(), Solver::Result::kSat);
  EXPECT_FALSE(s.model_value(x));
}

TEST(Solver, LastCallStatsIsPerCallDelta) {
  Solver s;
  std::vector<std::vector<Var>> p;
  add_php(s, 5, 4, p);
  ASSERT_EQ(s.solve(), Solver::Result::kUnsat);
  const Solver::Stats first = s.last_call_stats();
  EXPECT_GT(first.conflicts, 0u);
  EXPECT_EQ(first.conflicts, s.stats().conflicts);

  // Proven-UNSAT solvers answer follow-ups from ok() without searching:
  // the per-call delta must be zero while the cumulative stats stand.
  ASSERT_EQ(s.solve(), Solver::Result::kUnsat);
  EXPECT_EQ(s.last_call_stats().conflicts, 0u);
  EXPECT_EQ(s.last_call_stats().decisions, 0u);
  EXPECT_EQ(s.stats().conflicts, first.conflicts);
}

TEST(Solver, ActivationScopeEnforcesOnlyWhileAssumed) {
  Solver s;
  const Var x = s.new_var();
  const Var act = s.push_activation();
  s.add_clause(neg_lit(act), pos_lit(x));  // act -> x

  EXPECT_EQ(s.solve({pos_lit(act), neg_lit(x)}), Solver::Result::kUnsat);
  // Without the activation assumption the guarded clause is inert.
  EXPECT_EQ(s.solve({neg_lit(x)}), Solver::Result::kSat);

  // Retiring the scope garbage-collects the guarded clause and leaves
  // the solver healthy for later queries.
  ASSERT_EQ(s.num_clauses(), 1u);
  s.pop_activation(act);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.num_clauses(), 0u);
  EXPECT_EQ(s.solve({neg_lit(x)}), Solver::Result::kSat);
}

TEST(Solver, BacktrackToRootReopensClauseAdditionAfterSolve) {
  // Incremental CEC sessions add the next gate's clauses between
  // assumption solves. The model stays readable until the caller itself
  // backtracks to the root.
  Solver s;
  const Var x = s.new_var();
  const Var y = s.new_var();
  const Var act = s.push_activation();
  s.add_clause(neg_lit(act), pos_lit(x), pos_lit(y));  // act -> x | y

  ASSERT_EQ(s.solve({pos_lit(act), neg_lit(x)}), Solver::Result::kSat);
  EXPECT_FALSE(s.model_value(x));
  EXPECT_TRUE(s.model_value(y));
  s.backtrack_to_root();
  EXPECT_TRUE(s.add_clause(neg_lit(act), neg_lit(y)));  // act -> !y

  // A kUnsat that refutes the assumptions leaves their levels on the
  // trail; backtracking to the root clears them too.
  ASSERT_EQ(s.solve({pos_lit(act), neg_lit(x)}), Solver::Result::kUnsat);
  s.backtrack_to_root();
  EXPECT_TRUE(s.add_clause(neg_lit(act), pos_lit(x)));
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.solve({pos_lit(act)}), Solver::Result::kSat);
  EXPECT_TRUE(s.model_value(x));
}

/// Guarded pigeonhole instance on a fresh variable block, selected by its
/// activation literal — the shape incremental CEC sessions use.
Var add_guarded_php(Solver& s, int pigeons, int holes) {
  const Var act = s.push_activation();
  std::vector<std::vector<Var>> p(static_cast<std::size_t>(pigeons));
  for (auto& row : p) {
    for (int j = 0; j < holes; ++j) row.push_back(s.new_var());
  }
  for (int i = 0; i < pigeons; ++i) {
    std::vector<Lit> cl{neg_lit(act)};
    for (int j = 0; j < holes; ++j) {
      cl.push_back(pos_lit(p[static_cast<std::size_t>(i)]
                            [static_cast<std::size_t>(j)]));
    }
    s.add_clause(cl);
  }
  for (int j = 0; j < holes; ++j) {
    for (int i1 = 0; i1 < pigeons; ++i1) {
      for (int i2 = i1 + 1; i2 < pigeons; ++i2) {
        s.add_clause({neg_lit(act),
                      neg_lit(p[static_cast<std::size_t>(i1)]
                               [static_cast<std::size_t>(j)]),
                      neg_lit(p[static_cast<std::size_t>(i2)]
                               [static_cast<std::size_t>(j)])});
      }
    }
  }
  return act;
}

TEST(Solver, VerdictsAreOrderInvariantUnderPermutation) {
  // Satellite pin: logically independent assumption queries on one
  // long-lived solver must not observe each other through leaked
  // heuristic state. Three guarded instances — easy UNSAT, easy SAT,
  // and one far beyond its conflict quota — are solved in every order;
  // each query's verdict must be a function of the query alone. (Effort
  // profiles may shift by a few decisions — a prior UNSAT proof leaves a
  // level-0 ~act fact that shortens later tails — but verdicts may not.)
  struct Query {
    int pigeons, holes;
    std::int64_t limit;
  };
  const std::vector<Query> queries = {
      {5, 4, 10000},  // UNSAT well inside the quota
      {4, 4, 10000},  // SAT well inside the quota
      {9, 8, 50},     // needs thousands of conflicts: always kUnknown
  };
  std::vector<std::size_t> order = {0, 1, 2};
  std::vector<Solver::Result> reference;
  do {
    Solver s;
    std::vector<Var> acts;
    for (const Query& q : queries) {
      acts.push_back(add_guarded_php(s, q.pigeons, q.holes));
    }
    std::vector<Solver::Result> results(queries.size());
    for (const std::size_t i : order) {
      results[i] = s.solve({pos_lit(acts[i])}, queries[i].limit);
    }
    if (reference.empty()) {
      reference = results;
      EXPECT_EQ(results[0], Solver::Result::kUnsat);
      EXPECT_EQ(results[1], Solver::Result::kSat);
      EXPECT_EQ(results[2], Solver::Result::kUnknown);
    } else {
      EXPECT_EQ(results, reference);
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(Solver, AbortedCallsChargeAbortedTelemetry) {
  // Satellite pin: a call that returns kUnknown must not commit its
  // partial effort to the sat.* counters a retry is about to re-earn.
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(true);
  telemetry::flush_thread();
  telemetry::reset();

  Solver s;
  std::vector<std::vector<Var>> p;
  add_php(s, 7, 6, p);
  ASSERT_EQ(s.solve({}, /*conflict_limit=*/5), Solver::Result::kUnknown);
  telemetry::flush_thread();
  {
    const telemetry::Node root = telemetry::snapshot();
    const telemetry::Node* solve = root.find({"sat.solve"});
    ASSERT_NE(solve, nullptr);
    EXPECT_EQ(solve->counter("sat.aborted_queries"), 1);
    EXPECT_GE(solve->counter("sat.aborted_conflicts"), 5);
    EXPECT_EQ(solve->counter("sat.queries"), 0);
    EXPECT_EQ(solve->counter("sat.conflicts"), 0);
  }

  // The retry that reaches a verdict commits to the plain counters.
  ASSERT_EQ(s.solve(), Solver::Result::kUnsat);
  telemetry::flush_thread();
  {
    const telemetry::Node root = telemetry::snapshot();
    const telemetry::Node* solve = root.find({"sat.solve"});
    ASSERT_NE(solve, nullptr);
    EXPECT_EQ(solve->counter("sat.queries"), 1);
    EXPECT_GT(solve->counter("sat.conflicts"), 0);
    EXPECT_EQ(solve->counter("sat.aborted_queries"), 1);
  }

  telemetry::flush_thread();
  telemetry::reset();
  telemetry::set_enabled(was_enabled);
}

/// Adds the transitive fanin cone of `root` in `nl`, as `enc`'s variables,
/// to `cone`; `in_cone` (indexed by variable) deduplicates across calls.
void add_fanin_cone(const Netlist& nl, const TseitinEncoding& enc,
                    NetId root, std::vector<bool>& in_cone,
                    std::vector<Var>& cone) {
  std::vector<NetId> stack = {root};
  while (!stack.empty()) {
    const NetId net = stack.back();
    stack.pop_back();
    const auto v = static_cast<std::size_t>(enc.var_of(net));
    if (in_cone[v]) continue;
    in_cone[v] = true;
    cone.push_back(enc.var_of(net));
    const GateId g = nl.net(net).driver;
    if (g == kInvalidGate) continue;
    for (const NetId in : nl.gate(g).fanins) stack.push_back(in);
  }
}

/// Simulates one PI pattern on both circuits (same PI order) and reports
/// whether output `po` disagrees.
bool output_differs(const Netlist& a, const Netlist& b,
                    const std::vector<bool>& pattern, std::size_t po) {
  Simulator sa(a), sb(b);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    sa.set_input_word(i, pattern[i] ? ~0ull : 0ull);
    sb.set_input_word(i, pattern[i] ? ~0ull : 0ull);
  }
  sa.run();
  sb.run();
  return ((sa.value(a.outputs()[po].net) ^ sb.value(b.outputs()[po].net)) &
          1) != 0;
}

TEST(Solver, DecisionSetConfinesSearchToTheCone) {
  // Each benchmark shares its PIs with a copy whose first NAND2 is a
  // NOR2, next to thousands of variables no clause mentions. Every output
  // XOR is solved confined to the pair's fanin cone, then unrestricted:
  // the verdicts must agree, the confined call may decide each cone
  // variable at most once between conflicts, and its model's PIs
  // (unassigned ones read false) must show the difference in simulation.
  // The unrestricted call must decide every unrelated variable before it
  // can answer kSat, which breaks the confined call's bound wherever the
  // pair's cone and conflicts are small (c17's outputs, for one).
  constexpr int kUnrelatedVars = 4000;
  std::size_t sat_outputs = 0;
  std::size_t bound_broken = 0;
  for (const char* name : {"c17", "c432", "c880"}) {
    const Netlist golden = make_benchmark(name);
    Netlist edited = golden;
    for (GateId g = 0; g < edited.num_gates(); ++g) {
      if (!edited.gate(g).is_dead() &&
          edited.cell_of(g).kind == CellKind::kNand &&
          edited.cell_of(g).num_inputs() == 2) {
        edited.rewire_gate(g, edited.library().find_kind(CellKind::kNor, 2),
                           edited.gate(g).fanins);
        break;
      }
    }
    Solver s;
    const TseitinEncoding enc_a(s, golden);
    const TseitinEncoding enc_b(s, edited, &enc_a.input_vars());
    for (int i = 0; i < kUnrelatedVars; ++i) s.new_var();

    for (std::size_t po = 0; po < golden.outputs().size(); ++po) {
      const Var va = enc_a.var_of(golden.outputs()[po].net);
      const Var vb = enc_b.var_of(edited.outputs()[po].net);
      const Var d = s.new_var();
      encode_xor(s, va, vb, d);
      std::vector<bool> in_cone(static_cast<std::size_t>(s.num_vars()));
      std::vector<Var> cone;
      add_fanin_cone(golden, enc_a, golden.outputs()[po].net, in_cone, cone);
      add_fanin_cone(edited, enc_b, edited.outputs()[po].net, in_cone, cone);
      std::sort(cone.begin(), cone.end());

      const Solver::Result confined = s.solve({pos_lit(d)}, -1, nullptr,
                                              &cone);
      const Solver::Stats cs = s.last_call_stats();
      EXPECT_LE(cs.decisions, cone.size() * (cs.conflicts + 1))
          << name << " output " << po;
      if (confined == Solver::Result::kSat) {
        std::vector<bool> pattern;
        for (const Var pi : enc_a.input_vars()) {
          pattern.push_back(s.model_value(pi));
        }
        EXPECT_TRUE(output_differs(golden, edited, pattern, po))
            << name << " output " << po;
      }
      s.backtrack_to_root();

      const Solver::Result full = s.solve({pos_lit(d)});
      EXPECT_EQ(confined, full) << name << " output " << po;
      if (full == Solver::Result::kSat) {
        ++sat_outputs;
        const Solver::Stats fs = s.last_call_stats();
        EXPECT_GE(fs.decisions, static_cast<std::uint64_t>(kUnrelatedVars))
            << name << " output " << po;
        if (fs.decisions > cone.size() * (fs.conflicts + 1)) ++bound_broken;
      }
      s.backtrack_to_root();
    }
  }
  EXPECT_GT(sat_outputs, 0u);
  EXPECT_GT(bound_broken, 0u);
}

TEST(Solver, BacktrackLeavesVariablesOutsideTheDecisionSetUndecided) {
  // Deciding x false (the reset phase) propagates every y and then a
  // conflict on z; the learned unit x backjumps to level 0 and unassigns
  // the ys. They are outside the decision set {x, z}, so backtracking
  // must not queue them for branching: the kSat answer decides only x
  // and, after the conflict, z, and leaves every y unassigned.
  Solver s;
  const Var x = s.new_var();
  const Var z = s.new_var();
  std::vector<Var> ys;
  for (int i = 0; i < 10; ++i) {
    ys.push_back(s.new_var());
    s.add_clause(pos_lit(x), pos_lit(ys.back()));
  }
  s.add_clause(pos_lit(x), pos_lit(z));
  s.add_clause(pos_lit(x), neg_lit(z));
  const std::vector<Var> decide = {x, z};
  ASSERT_EQ(s.solve({}, -1, nullptr, &decide), Solver::Result::kSat);
  EXPECT_EQ(s.last_call_stats().conflicts, 1u);
  EXPECT_EQ(s.last_call_stats().decisions, 2u);
  EXPECT_TRUE(s.model_value(x));
  for (const Var y : ys) EXPECT_FALSE(s.model_value(y));
}

/// Brute-force evaluation of a CNF over few variables.
bool brute_force_sat(int nvars,
                     const std::vector<std::vector<Lit>>& clauses) {
  for (unsigned assign = 0; assign < (1u << nvars); ++assign) {
    bool ok = true;
    for (const auto& cl : clauses) {
      bool sat_cl = false;
      for (Lit l : cl) {
        const bool val = (assign >> l.var()) & 1;
        if (val != l.negated()) {
          sat_cl = true;
          break;
        }
      }
      if (!sat_cl) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

class Random3SatTest : public ::testing::TestWithParam<int> {};

TEST_P(Random3SatTest, AgreesWithBruteForce) {
  // Random 3-SAT near the phase transition (ratio ~4.3), cross-checked
  // against exhaustive enumeration.
  const int nvars = 10;
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  for (int trial = 0; trial < 30; ++trial) {
    const int nclauses = 43;
    std::vector<std::vector<Lit>> clauses;
    Solver s;
    for (int v = 0; v < nvars; ++v) s.new_var();
    for (int c = 0; c < nclauses; ++c) {
      std::vector<Lit> cl;
      for (int k = 0; k < 3; ++k) {
        cl.push_back(Lit(static_cast<Var>(rng.next_below(nvars)),
                         rng.next_bool()));
      }
      clauses.push_back(cl);
      s.add_clause(cl);
    }
    const bool expected = brute_force_sat(nvars, clauses);
    const auto got = s.solve();
    ASSERT_EQ(got == Solver::Result::kSat, expected)
        << "seed group " << GetParam() << " trial " << trial;
    if (got == Solver::Result::kSat) {
      // Check the model actually satisfies every clause.
      for (const auto& cl : clauses) {
        bool sat_cl = false;
        for (Lit l : cl) {
          if (s.model_value(l.var()) != l.negated()) sat_cl = true;
        }
        EXPECT_TRUE(sat_cl);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Random3SatTest,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace odcfp::sat
