// CDCL SAT solver built from scratch (no external dependencies).
//
// MiniSat-style architecture: two-watched-literal propagation, first-UIP
// conflict analysis with clause learning, VSIDS variable activities on a
// binary heap, phase saving, and Luby-sequence restarts. It is the proof
// engine behind the combinational equivalence checker in src/equiv, and is
// also exposed directly (tests include pigeonhole instances and random
// 3-SAT cross-checked against brute force).
//
// Incremental use. The solver is built for repeated solve() calls over a
// growing formula:
//  * Learned clauses always persist across calls — the shared-miter CEC
//    sessions rely on proofs about the base circuit carrying over to
//    every subsequent edition query.
//  * Heuristic state (VSIDS activities, saved phases, the decision heap)
//    is re-initialized at every solve() entry over the call's decision
//    set, so logically independent queries cannot observe each other
//    through heuristic state — under a conflict limit, verdicts become
//    order-invariant.
//  * A solve() may name a decision set: only those variables are reset
//    and branched on, so a query pays for its own cone, not for every
//    variable the solver has accumulated. Variables outside the set are
//    assigned only by propagation. This is complete whenever every live
//    clause defines a gate output from its fanins (or is implied by such
//    definitions) and the set is closed under fanin: a conflict-free
//    assignment of the set then extends to a full model by simulating
//    everything else, so kSat and kUnsat mean what they mean unrestricted.
//  * push_activation()/pop_activation() give MiniSat-style retractable
//    scopes: clauses guarded by an activation literal are enforced only
//    while the literal is assumed, and pop_activation retires the scope
//    permanently (asserting the negation and garbage-collecting every
//    clause the retirement satisfied).
#pragma once

#include <cstdint>
#include <vector>

#include "common/budget.hpp"

namespace odcfp::sat {

using Var = std::int32_t;
inline constexpr Var kUndefVar = -1;

/// A literal: variable with polarity, encoded as 2*var + (negated ? 1 : 0).
class Lit {
 public:
  Lit() : code_(-2) {}
  Lit(Var v, bool negated) : code_(2 * v + (negated ? 1 : 0)) {}

  Var var() const { return code_ >> 1; }
  bool negated() const { return code_ & 1; }
  std::int32_t code() const { return code_; }
  bool is_undef() const { return code_ < 0; }

  Lit operator~() const {
    Lit l;
    l.code_ = code_ ^ 1;
    return l;
  }
  bool operator==(const Lit&) const = default;

  static Lit from_code(std::int32_t code) {
    Lit l;
    l.code_ = code;
    return l;
  }

 private:
  std::int32_t code_;
};

inline Lit pos_lit(Var v) { return Lit(v, false); }
inline Lit neg_lit(Var v) { return Lit(v, true); }

enum class LBool : std::uint8_t { kFalse = 0, kTrue = 1, kUndef = 2 };

class Solver {
 public:
  enum class Result { kSat, kUnsat, kUnknown };

  struct Stats {
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t restarts = 0;
    std::uint64_t learned_clauses = 0;

    /// Accumulation across queries / solvers, so callers (CEC, batch
    /// verification, the benches) can report cumulative proof effort.
    Stats& operator+=(const Stats& o) {
      decisions += o.decisions;
      propagations += o.propagations;
      conflicts += o.conflicts;
      restarts += o.restarts;
      learned_clauses += o.learned_clauses;
      return *this;
    }
    /// Saturating difference: a snapshot taken before a solver was
    /// replaced or re-seeded can be "ahead" of the live stats, and a
    /// wrapped uint64 delta would poison every cumulative counter it is
    /// added to. A clamped zero is the honest floor for "no progress
    /// observable across the restart".
    friend Stats operator-(Stats a, const Stats& b) {
      const auto sub = [](std::uint64_t x, std::uint64_t y) {
        return x >= y ? x - y : std::uint64_t{0};
      };
      a.decisions = sub(a.decisions, b.decisions);
      a.propagations = sub(a.propagations, b.propagations);
      a.conflicts = sub(a.conflicts, b.conflicts);
      a.restarts = sub(a.restarts, b.restarts);
      a.learned_clauses = sub(a.learned_clauses, b.learned_clauses);
      return a;
    }
  };

  /// Creates a fresh variable and returns it.
  Var new_var();
  int num_vars() const { return static_cast<int>(assigns_.size()); }

  /// Adds a clause (taken by value; duplicate literals are removed and
  /// tautologies dropped). Returns false if the formula is already
  /// unsatisfiable at level 0.
  bool add_clause(std::vector<Lit> lits);

  /// Convenience overloads.
  bool add_clause(Lit a) { return add_clause(std::vector<Lit>{a}); }
  bool add_clause(Lit a, Lit b) { return add_clause(std::vector<Lit>{a, b}); }
  bool add_clause(Lit a, Lit b, Lit c) {
    return add_clause(std::vector<Lit>{a, b, c});
  }

  // ---- retractable scopes (activation literals) ----

  /// Opens a retractable scope: returns a fresh activation variable.
  /// Clauses guarded by it (carrying neg_lit(act)) are enforced only
  /// while pos_lit(act) appears in solve()'s assumptions.
  Var push_activation() { return new_var(); }

  /// Retires an activation scope permanently: asserts neg_lit(act) at
  /// level 0 and garbage-collects every clause (original or learned) the
  /// retirement satisfied, so later queries never propagate through the
  /// retracted cone. Learned clauses that depend on the scope's clauses
  /// contain neg_lit(act) by construction of conflict analysis, so they
  /// are swept too — retraction is sound.
  void pop_activation(Var act);

  /// Solves under optional assumptions. conflict_limit < 0 means no limit.
  /// `budget` (optional) adds a wall-clock deadline / cancellation token
  /// checked alongside the conflict limit, once per conflict. kUnknown is
  /// only returned when the limit or the budget is hit; a limit of 0
  /// returns it before any search.
  ///
  /// `decision_vars` (optional) restricts branching to the listed
  /// variables; kSat is then returned once every one of them is assigned
  /// without conflict (see "Incremental use" above for when that is a
  /// model). nullptr branches on every variable. Heuristics are reset,
  /// and the decision heap filled, in list order, so an ascending list
  /// breaks activity ties in variable-index order as the full set does.
  ///
  /// Telemetry: stats deltas of calls that return a verdict (kSat/kUnsat)
  /// are committed to the sat.* counters; a call aborted by a limit or
  /// budget (kUnknown) charges sat.aborted_* instead, so cumulative
  /// counters never double-count work that a retry will redo.
  Result solve(const std::vector<Lit>& assumptions = {},
               std::int64_t conflict_limit = -1,
               const Budget* budget = nullptr,
               const std::vector<Var>* decision_vars = nullptr);

  /// Model access after Result::kSat. After a solve restricted to a
  /// decision set, a variable outside the set that propagation left
  /// unassigned reads false: a free input (a PI outside the compared
  /// cones) may take that value, but a gate output read this way is not
  /// part of any model.
  bool model_value(Var v) const;

  /// Undoes the assignment the last solve() left on the trail (its model,
  /// or the assumption levels of an assumption-refuted kUnsat) and
  /// returns to decision level 0, so add_clause may be called again.
  /// model_value() is meaningless afterwards: read the model first.
  void backtrack_to_root() { backtrack(0); }

  /// Cumulative effort across every solve() on this solver.
  const Stats& stats() const { return stats_; }
  /// Effort delta of the most recent solve() alone — what the caller
  /// needs to attribute work to the query (buyer) that incurred it.
  const Stats& last_call_stats() const { return last_call_stats_; }

  std::size_t num_clauses() const { return clauses_.size(); }

  /// False once the formula is proven unsatisfiable at level 0 (every
  /// later solve returns kUnsat). Long-lived sessions use this as a
  /// health check: their base formula is satisfiable by construction, so
  /// ok() flipping false means something violated the protocol.
  bool ok() const { return ok_; }

 private:
  using ClauseRef = std::int32_t;
  static constexpr ClauseRef kNoReason = -1;

  struct Clause {
    std::vector<Lit> lits;
    bool learned = false;
  };

  struct Watcher {
    ClauseRef clause;
    Lit blocker;
  };

  /// pop_activation's first half, without the clause-database sweep:
  /// asserts neg_lit(act) at level 0 and propagates.
  void retire_activation(Var act);

  /// pop_activation's sweep: drops clauses satisfied at level 0, strips
  /// falsified literals, and rebuilds the watch lists. Returns the number
  /// of clauses removed.
  std::size_t simplify();

  // --- core operations ---
  Result solve_internal(const std::vector<Lit>& assumptions,
                        std::int64_t conflict_limit, const Budget* budget,
                        const std::vector<Var>* decision_vars);
  LBool value(Lit l) const;
  LBool value_var(Var v) const;
  void enqueue(Lit l, ClauseRef reason);
  ClauseRef propagate();
  void analyze(ClauseRef conflict, std::vector<Lit>& learnt, int& bt_level);
  void backtrack(int level);
  bool make_decision();
  int decision_level() const {
    return static_cast<int>(trail_lim_.size());
  }
  void attach_clause(ClauseRef cr);

  // --- VSIDS heap ---
  void bump_var(Var v);
  void decay_activities();
  void heap_insert(Var v);
  Var heap_pop();
  void heap_up(int i);
  void heap_down(int i);
  bool heap_contains(Var v) const;

  /// Re-initializes var_inc and, over the decision set (every variable
  /// when `decision_vars` is nullptr), activities (zero), saved phases
  /// (false) and the decision heap to the state a fresh solver would
  /// have. Costs O(set + previous heap), not O(num_vars), when restricted.
  void reset_heuristics(const std::vector<Var>* decision_vars);
  /// True when the current solve may branch on `v`.
  bool decidable(Var v) const {
    return decision_stamp_[v] == decision_epoch_;
  }

  static std::uint64_t luby(std::uint64_t i);

  std::vector<Clause> clauses_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by lit code
  std::vector<LBool> assigns_;                 // indexed by var
  std::vector<bool> phase_;                    // saved phases
  std::vector<int> level_;                     // decision level per var
  std::vector<ClauseRef> reason_;              // antecedent per var
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  std::size_t qhead_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  std::vector<int> heap_;       // binary max-heap of vars
  std::vector<int> heap_pos_;   // var -> heap index (-1 if absent)

  // Decision set of the current solve: the variables whose stamp equals
  // the epoch that call's reset_heuristics drew.
  std::uint32_t decision_epoch_ = 0;
  std::vector<std::uint32_t> decision_stamp_;  // indexed by var

  std::vector<bool> seen_;  // scratch for analyze()

  bool ok_ = true;  // false once UNSAT at level 0
  Stats stats_;
  Stats last_call_stats_;
};

}  // namespace odcfp::sat
