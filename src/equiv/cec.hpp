// Combinational equivalence checking (CEC).
//
// Every fingerprint embedding must preserve functionality (requirement 1
// of the paper). This module provides the verification layers used
// throughout the tests and benches:
//
//  * random_sim_equal      — fast 64-way random simulation filter; finds
//                            almost all real differences in microseconds;
//  * exhaustive_equal      — complete for circuits with <= 24 inputs;
//  * check_equivalence_sat — SAT-based proof on a shared-PI miter;
//  * IncrementalCecSession — one long-lived solver sharing the golden
//                            circuit's variables; each edition stamps only
//                            its edited cones behind an activation
//                            literal and is proven, by a local window or
//                            a SAT query, at the cut points where their
//                            effect re-merges with the golden.
//
// verify_equivalence() composes the first three: simulation first (cheap
// refutation), then an exhaustive proof up to 16 inputs and a SAT proof
// above that. verify_equivalence_budgeted() is its degradation-aware
// variant and the one rung a session check escalates to when it exhausts
// its quota.
//
// Circuits are matched by PI name and PO port name; mismatched interfaces
// throw CheckError.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/budget.hpp"
#include "library/truth_table.hpp"
#include "netlist/netlist.hpp"
#include "sat/solver.hpp"
#include "sat/tseitin.hpp"

namespace odcfp {

struct CecResult {
  enum class Status { kEquivalent, kDifferent, kUnknown };
  Status status = Status::kUnknown;
  /// On kDifferent: one distinguishing input assignment (by PI order of
  /// the first netlist).
  std::vector<bool> counterexample;
  /// Which verification layer produced the verdict.
  std::string method;
  sat::Solver::Stats sat_stats;

  bool equivalent() const { return status == Status::kEquivalent; }
};

/// Random simulation: returns false (and fills `counterexample`) if a
/// distinguishing pattern is found within `num_words` 64-pattern words.
/// Returning true is evidence, not proof.
bool random_sim_equal(const Netlist& a, const Netlist& b,
                      std::size_t num_words, std::uint64_t seed,
                      std::vector<bool>* counterexample = nullptr);

/// Complete check by enumeration; requires a.inputs().size() <= 24.
bool exhaustive_equal(const Netlist& a, const Netlist& b,
                      std::vector<bool>* counterexample = nullptr);

/// SAT CEC on a miter with shared PIs. conflict_limit < 0 = no limit.
/// `budget` adds deadline / cancellation caps to the proof search.
/// Degenerate miters (no outputs to compare) are reported as trivially
/// equivalent with method "trivial-no-outputs" without touching a solver.
CecResult check_equivalence_sat(const Netlist& a, const Netlist& b,
                                std::int64_t conflict_limit = -1,
                                const Budget* budget = nullptr);

/// Shared-miter incremental CEC: allocates the golden netlist's variables
/// once, then answers each edition with assumption solves that only pay
/// for the edition's edited cones. The edition's delta clauses are
/// guarded by a fresh activation literal and retracted after the verdict,
/// so the solver — and everything it learned about the base circuit —
/// stays warm for the next edition.
///
/// The edition is swept while it is encoded, in topological order: a
/// freshly encoded net whose simulation signature matches the golden net
/// with the same id is a cut-point candidate. It is proven equal, and
/// becomes a cut point whose readers use the golden variable and so reuse
/// the golden encoding downstream, either by a window proof or by one
/// assumption query. A window proof compares exact truth tables of the
/// fresh net and its twin over a small set of free leaves (the fresh cone
/// plus golden gates grown a few levels from both sides); equal tables
/// prove equality over the PIs, unequal ones prove nothing and the query
/// runs. A fingerprint change hidden by its trigger's ODC re-merges at the
/// primary gate, so for a fingerprinted edition every output resolves to
/// the golden variable and no per-output proof is left. Outputs that still
/// differ in variable are proven one by one, in PO order.
///
/// Every query, sweep or output, branches only on the transitive fanin
/// cone of the two variables it compares (golden fanins from a table
/// built once per session, fresh ones recorded as each fresh gate is
/// encoded), so its heuristic reset and search cost scale with that
/// cone, not with the session. The solver holds a gate's clauses only
/// once some query's cone has read it: golden definitions stay for the
/// session, fresh ones are guarded by the check's activation literal.
/// Every live clause defines a gate or XOR output or is a lemma those
/// definitions imply, and the defined gates are closed under fanin, so a
/// conflict-free assignment of a fanin-closed set extends to a full
/// model: UNSAT still proves, SAT still refutes, and counterexample PIs
/// outside the cone read false.
///
/// Sweep verdicts are memoized for the session's lifetime, keyed by what
/// a fresh gate computes: its cell's truth table over its fanins' memo
/// ids (a golden variable is its own id; a fresh fanin has the id of the
/// memo node its gate was keyed to). Equal keys compute the same function
/// of the PIs in every edition, so once a window or a query proves a node
/// equal to golden variable X, every later gate with that key merges to X
/// without a proof, and once a query refutes it against twin Y, later
/// gates with that key skip the query against Y. Only proven answers are
/// stored; a memo hit runs no solve and charges no quota.
///
/// Contract: editions should be structural clones of the golden netlist
/// (same gate/net id space), which is exactly what batch_fingerprint
/// produces. An arbitrary same-interface netlist still verifies correctly
/// — it just encodes fresh (reuse degrades to zero, not to wrong). The
/// session sees only the two netlists: candidates come from simulation
/// and every merge from a window proof or an UNSAT answer, never from
/// metadata about where the edits are. Not thread-safe; one session per
/// thread.
class IncrementalCecSession {
 public:
  struct Options {
    /// Per-check conflict quota (< 0 = unlimited), shared by the sweep
    /// queries and the per-output queries. A check that blows it returns
    /// kUnknown; the batch layer escalates to verify_equivalence_budgeted.
    std::int64_t conflict_limit = -1;
  };

  explicit IncrementalCecSession(const Netlist& golden)
      : IncrementalCecSession(golden, Options{}) {}
  IncrementalCecSession(const Netlist& golden, const Options& options);
  // The session only references `golden`; binding a temporary would
  // dangle on the first check, so reject rvalues at compile time.
  explicit IncrementalCecSession(Netlist&&) = delete;
  IncrementalCecSession(Netlist&&, const Options&) = delete;
  IncrementalCecSession(const IncrementalCecSession&) = delete;
  IncrementalCecSession& operator=(const IncrementalCecSession&) = delete;

  /// Proves or refutes golden == edition. kUnknown on quota/budget
  /// exhaustion (escalate) or when the session solver is no longer
  /// healthy. Degenerate checks are trivially equivalent: method
  /// "trivial-no-outputs" when there is nothing to compare, and
  /// "trivial-identical-cone" when the edition encodes no fresh gate at
  /// all. Every other verdict has method "sat-incremental".
  CecResult check(const Netlist& edition, const Budget* budget = nullptr);

  std::size_t checks() const { return checks_; }
  /// Cumulative structural-reuse tallies across all checks; the batch
  /// layer turns these into the cec.incremental.* telemetry counters.
  std::size_t gates_reused() const { return gates_reused_; }
  std::size_t gates_encoded() const { return gates_encoded_; }
  /// Cut points proven by a window or a query across all checks (fresh
  /// nets merged back onto their golden twin).
  std::size_t merges() const { return merges_; }
  /// The share of merges() a window proof made without a query.
  std::size_t window_merges() const { return window_merges_; }
  /// Sweep candidates the memo answered without a proof across all
  /// checks (merged, or skipped as already refuted).
  std::size_t memo_hits() const { return memo_hits_; }

 private:
  /// A fresh gate's memo key: its cell's function over the memo ids of
  /// its fanins, in pin order (unused slots stay kUndefVar).
  struct MemoKey {
    TruthTable function;
    std::array<sat::Var, TruthTable::kMaxInputs> fanins;
    bool operator==(const MemoKey&) const = default;
  };
  struct MemoKeyHash {
    std::size_t operator()(const MemoKey& key) const;
  };
  /// One Boolean function of the PIs and the sweep verdicts proven about
  /// it. Ids start above every golden variable, so the two never clash.
  struct MemoNode {
    sat::Var id = sat::kUndefVar;
    sat::Var merged_into = sat::kUndefVar;  ///< Golden var proven equal.
    std::vector<sat::Var> refuted;          ///< Golden vars proven unequal.
  };
  /// The gate defining each variable of a table's range: its cell
  /// function (nullptr for PIs and for the XOR outputs of the queries,
  /// which are never a fanin), its fanin variables, and whether the
  /// solver holds its clauses yet.
  struct GateTable {
    std::vector<const TruthTable*> function;
    /// Slot i reads fanins[range[i].first .. range[i].first +
    /// range[i].second).
    std::vector<std::pair<std::uint32_t, std::uint32_t>> range;
    std::vector<sat::Var> fanins;
    std::vector<bool> defined;
    void set(std::size_t slot, const TruthTable& fn,
             const std::vector<sat::Var>& ins);
    void resize(std::size_t slots);
    void clear();
    std::span<const sat::Var> fanins_of(std::size_t slot) const {
      return {fanins.data() + range[slot].first, range[slot].second};
    }
  };

  /// Retires a check's activation scope, sweeps the retired cone out of
  /// the clause database, and refreshes the session health flag.
  void retire_scope(sat::Var act);

  /// The table holding `v`, a golden variable or a fresh one of the check
  /// whose activation variable is `act`, and its slot there.
  std::pair<GateTable*, std::size_t> gate_of(sat::Var v, sat::Var act);

  /// Collects the transitive fanin cone of `a` and `b` into cone_,
  /// ascending: the decision set of a query comparing them. Each is a
  /// golden variable or a fresh one of the check whose activation
  /// variable is `act`.
  const std::vector<sat::Var>& cone_of(sat::Var a, sat::Var b,
                                       sat::Var act);

  /// Emits the clauses of every gate in `cone` the solver does not hold
  /// yet: golden ones unguarded, fresh ones guarded by `act`.
  void define_cone(const std::vector<sat::Var>& cone, sat::Var act);

  /// True when the window around fresh variable `fresh` and its golden
  /// twin proves them equal (see DESIGN.md §7b, "Window proofs").
  bool window_proves(sat::Var fresh, sat::Var twin, sat::Var act);

  const Netlist& golden_;
  Options options_;
  sat::Solver solver_;
  std::optional<sat::TseitinEncoding> golden_enc_;
  /// Simulation signature words of the golden encoding, indexed by
  /// golden variable (the sweep's candidate filter).
  std::vector<std::uint64_t> golden_sigs_;
  /// Indexed by golden variable, built once per session.
  GateTable golden_gates_;
  /// Indexed by variable minus the current check's activation variable,
  /// and cleared when a check starts: its functions point into the
  /// library of the edition being checked, so they are read only during
  /// that check.
  GateTable fresh_gates_;
  /// cone_of working storage: a variable is visited when its stamp equals
  /// visit_gen_, so no query pays for clearing a session-sized array.
  std::vector<std::uint32_t> visit_stamp_;
  std::uint32_t visit_gen_ = 0;
  std::vector<sat::Var> cone_;
  std::vector<sat::Var> cone_stack_;
  /// window_proves working storage. win_role_ (indexed by variable) marks
  /// the window's nodes and leaves and is cleared after each window;
  /// win_slot_ maps a variable to its truth table in win_tables_.
  std::vector<std::uint8_t> win_role_;
  std::vector<std::uint32_t> win_slot_;
  std::vector<sat::Var> win_nodes_;
  std::vector<sat::Var> win_leaves_;
  std::vector<std::uint64_t> win_tables_;
  /// Per-check working storage, kept with its capacity so a check
  /// allocates per check, not per gate: the fresh variables' signatures
  /// (kSigWords each) and memo ids, both indexed by variable minus the
  /// activation variable; the input tables of the gate being evaluated
  /// (a sweep signature or a window table); and the golden PI variables
  /// in the edition's PI order.
  std::vector<std::uint64_t> fresh_sigs_;
  std::vector<sat::Var> fresh_ids_;
  std::vector<const std::uint64_t*> eval_ins_;
  std::vector<sat::Var> shared_inputs_;
  std::unordered_map<MemoKey, MemoNode, MemoKeyHash> memo_;
  bool healthy_ = true;
  std::size_t checks_ = 0;
  std::size_t gates_reused_ = 0;
  std::size_t gates_encoded_ = 0;
  std::size_t merges_ = 0;
  std::size_t window_merges_ = 0;
  std::size_t memo_hits_ = 0;
};

/// The composed checker: random simulation, then exhaustive (<= 16 PIs) or
/// SAT. `sat_conflict_limit` bounds the proof effort; on limit-exhaustion
/// the result is kUnknown (treat as failure in tests).
CecResult verify_equivalence(const Netlist& a, const Netlist& b,
                             std::size_t sim_words = 256,
                             std::uint64_t seed = 42,
                             std::int64_t sat_conflict_limit = -1);

struct BudgetedCecOptions {
  std::uint64_t seed = 42;
  std::int64_t sat_conflict_limit = -1;
};

/// The degradation-aware checker the serving layers use. Differences from
/// verify_equivalence:
///  * mismatched interfaces (PI/PO count or name mismatch) return
///    Status::kMalformedInput instead of throwing CheckError;
///  * when the SAT proof exhausts `budget`, the checker falls back to
///    random-simulation refutation with whatever budget remains. A
///    difference found there is still an exact kDifferent verdict; if
///    simulation finds nothing the call returns Status::kExhausted
///    carrying a kUnknown CecResult whose confidence reflects the
///    simulation evidence accumulated (0 = none, asymptotically 1).
/// Equivalence proven within budget returns Status::kOk.
Outcome<CecResult> verify_equivalence_budgeted(
    const Netlist& a, const Netlist& b, const Budget* budget,
    const BudgetedCecOptions& options = {});

}  // namespace odcfp
