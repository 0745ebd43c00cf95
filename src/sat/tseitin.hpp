// Tseitin encoding of a gate-level netlist into CNF.
//
// One SAT variable per net; each gate contributes 2^k clauses (k = fanin
// count, k <= 6 by construction of TruthTable) asserting out == F(inputs)
// row by row. Small and simple; the solver's propagation handles the rest.
//
// Three features support the incremental shared-miter CEC sessions:
//  * Structural reuse: when an edition netlist is encoded against the
//    base circuit's existing encoding, every gate that matches its base
//    counterpart (same cell truth table, output, fanins — and whose
//    fanins all resolved to the base's variables) reuses the base's
//    output variable instead of being re-encoded. Only the edited cone
//    and its transitive fanout (up to any cut point, below) get fresh
//    variables.
//  * Cut points: a caller hook sees every freshly encoded gate in
//    topological order and may answer with a base variable it has proven
//    equal, so the gates downstream of that net reuse the base encoding
//    again instead of inheriting the edit's fanout.
//  * Deferred clauses: an encoding can allocate its variables without
//    emitting any clause. The caller then defines, with encode_gate, only
//    the gates its queries read, and may guard those definitions with an
//    activation literal to retract them via Solver::pop_activation.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "library/truth_table.hpp"
#include "netlist/netlist.hpp"
#include "sat/solver.hpp"

namespace odcfp::sat {

class TseitinEncoding;

/// Knobs for TseitinEncoding. Plain pointers are non-owning views that
/// must outlive the constructor call only.
struct TseitinOptions {
  /// PI variables to share (indexed by PI position) instead of fresh ones
  /// — how a miter shares primary inputs.
  const std::vector<Var>* share_inputs = nullptr;
  /// When set, the encoding allocates (or reuses) every variable but adds
  /// no clause: the caller emits each gate's definition with encode_gate
  /// when a query first reads it.
  bool skip_clauses = false;
  /// Base netlist + its encoding to structurally reuse against. Both or
  /// neither; the edition being encoded must use the same net/gate id
  /// space (editions are clones of the base, so ids align).
  const Netlist* base = nullptr;
  const TseitinEncoding* base_encoding = nullptr;
  /// Called after each freshly encoded gate, in topological order, with
  /// the gate, its fresh output variable and its fanin variables (pin
  /// order). Returns the variable every later reader of the gate's
  /// output net uses: `fresh` itself, or a variable the caller proved
  /// equal to it. The solver must be back at decision level 0 on return.
  std::function<Var(GateId gate, Var fresh, const std::vector<Var>& fanins)>
      on_fresh_gate = nullptr;
};

/// Maps NetId -> SAT variable for one encoded netlist.
class TseitinEncoding {
 public:
  /// Encodes all gates of `nl` into `solver`. If `share_inputs` is given
  /// (indexed by PI position), those variables are used for the primary
  /// inputs instead of fresh ones — this is how a miter shares PIs.
  TseitinEncoding(Solver& solver, const Netlist& nl,
                  const std::vector<Var>* share_inputs = nullptr)
      : TseitinEncoding(solver, nl,
                        TseitinOptions{.share_inputs = share_inputs}) {}

  TseitinEncoding(Solver& solver, const Netlist& nl,
                  const TseitinOptions& options);

  Var var_of(NetId net) const;
  /// Like var_of but returns kUndefVar for unknown/undriven nets instead
  /// of failing — the reuse check probes base nets that may not exist.
  Var var_or_undef(NetId net) const;
  const std::vector<Var>& input_vars() const { return input_vars_; }

  /// Gates whose base variable was reused verbatim (no clauses emitted).
  std::size_t reused_gates() const { return reused_gates_; }
  /// Gates given a fresh variable (the edited cone and its fanout up to
  /// the cut points), whether or not their clauses were emitted.
  std::size_t encoded_gates() const { return encoded_gates_; }

 private:
  std::vector<Var> var_of_;  // indexed by NetId
  std::vector<Var> input_vars_;
  std::size_t reused_gates_ = 0;
  std::size_t encoded_gates_ = 0;
};

/// Adds the 2^k clauses asserting out == function(ins), ins in pin order,
/// one clause per row of the truth table. When `activation` is valid every
/// clause is guarded (enforced only under pos_lit(activation)).
void encode_gate(Solver& solver, const TruthTable& function,
                 std::span<const Var> ins, Var out,
                 Var activation = kUndefVar);

/// Adds clauses asserting out == (a XOR b). When `activation` is valid the
/// constraint is guarded (enforced only under pos_lit(activation)).
void encode_xor(Solver& solver, Var a, Var b, Var out,
                Var activation = kUndefVar);

/// Adds clauses asserting out == OR(ins); ins may be empty (out = false).
void encode_or(Solver& solver, const std::vector<Var>& ins, Var out);

}  // namespace odcfp::sat
