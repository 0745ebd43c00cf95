#include "sat/tseitin.hpp"

#include "common/check.hpp"

namespace odcfp::sat {

namespace {

/// True when gate `g` of `nl` computes the same function of the same nets
/// as its counterpart in `base` AND every fanin already resolved to the
/// base's variable, so the base's clauses for it are already in the
/// solver. Editions are clones of the base (gate/net ids align), which is
/// what makes the id-wise comparison meaningful; for unrelated netlists
/// this simply never fires and the whole circuit is encoded fresh — still
/// correct. Cells compare by truth table: a CellId indexes its own
/// netlist's library, so equal ids across libraries prove nothing.
bool gate_reusable(const Netlist& nl, GateId g, const Gate& gt,
                   const std::vector<Var>& var_of,
                   const TseitinOptions& options) {
  if (options.base == nullptr || options.base_encoding == nullptr) {
    return false;
  }
  const Netlist& base = *options.base;
  if (static_cast<std::size_t>(g) >= base.num_gates()) return false;
  const Gate& bg = base.gate(g);
  if (bg.is_dead()) return false;
  if (bg.output != gt.output || bg.fanins != gt.fanins ||
      base.cell_of(g).function != nl.cell_of(g).function) {
    return false;
  }
  // The base must actually have encoded this output net.
  if (options.base_encoding->var_or_undef(gt.output) == kUndefVar) {
    return false;
  }
  // Transitive-fanout propagation: a fanin whose driver was edited maps
  // to a fresh variable here, which breaks equality and forces this gate
  // (and, inductively, everything downstream) to be re-encoded.
  for (NetId in : gt.fanins) {
    if (var_of[in] != options.base_encoding->var_or_undef(in)) return false;
  }
  return true;
}

}  // namespace

TseitinEncoding::TseitinEncoding(Solver& solver, const Netlist& nl,
                                 const TseitinOptions& options)
    : var_of_(nl.num_nets(), kUndefVar) {
  ODCFP_CHECK_MSG((options.base == nullptr) ==
                      (options.base_encoding == nullptr),
                  "base and base_encoding must be given together");
  if (options.share_inputs != nullptr) {
    ODCFP_CHECK(options.share_inputs->size() == nl.inputs().size());
  }
  input_vars_.reserve(nl.inputs().size());
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    const Var v = (options.share_inputs != nullptr)
                      ? (*options.share_inputs)[i]
                      : solver.new_var();
    var_of_[nl.inputs()[i]] = v;
    input_vars_.push_back(v);
  }
  std::vector<Var> in_vars;  // the gate's fanin variables, reused
  for (GateId g : nl.topo_order()) {
    const Gate& gt = nl.gate(g);
    if (gate_reusable(nl, g, gt, var_of_, options)) {
      var_of_[gt.output] = options.base_encoding->var_of(gt.output);
      ++reused_gates_;
      continue;
    }
    const TruthTable& tt = nl.library().cell(gt.cell).function;
    const Var out = solver.new_var();
    var_of_[gt.output] = out;
    ++encoded_gates_;
    in_vars.clear();
    for (NetId in : gt.fanins) {
      ODCFP_CHECK_MSG(var_of_[in] != kUndefVar,
                      "net used before being driven");
      in_vars.push_back(var_of_[in]);
    }
    if (!options.skip_clauses) encode_gate(solver, tt, in_vars, out);
    if (options.on_fresh_gate) {
      var_of_[gt.output] = options.on_fresh_gate(g, out, in_vars);
    }
  }
}

Var TseitinEncoding::var_of(NetId net) const {
  ODCFP_CHECK(net < var_of_.size() && var_of_[net] != kUndefVar);
  return var_of_[net];
}

Var TseitinEncoding::var_or_undef(NetId net) const {
  if (static_cast<std::size_t>(net) >= var_of_.size()) return kUndefVar;
  return var_of_[net];
}

void encode_gate(Solver& solver, const TruthTable& function,
                 std::span<const Var> ins, Var out, Var activation) {
  ODCFP_DCHECK(ins.size() == static_cast<std::size_t>(function.num_inputs()));
  for (unsigned p = 0; p < function.num_rows(); ++p) {
    std::vector<Lit> clause;
    clause.reserve(ins.size() + 2);
    for (std::size_t i = 0; i < ins.size(); ++i) {
      // "input i differs from pattern bit" escapes the row.
      clause.push_back(Lit(ins[i], (p >> i) & 1));
    }
    clause.push_back(Lit(out, !function.eval(p)));
    if (activation != kUndefVar) clause.push_back(neg_lit(activation));
    solver.add_clause(std::move(clause));
  }
}

void encode_xor(Solver& solver, Var a, Var b, Var out, Var activation) {
  if (activation == kUndefVar) {
    solver.add_clause(neg_lit(a), neg_lit(b), neg_lit(out));
    solver.add_clause(pos_lit(a), pos_lit(b), neg_lit(out));
    solver.add_clause(pos_lit(a), neg_lit(b), pos_lit(out));
    solver.add_clause(neg_lit(a), pos_lit(b), pos_lit(out));
    return;
  }
  const Lit g = neg_lit(activation);
  solver.add_clause({neg_lit(a), neg_lit(b), neg_lit(out), g});
  solver.add_clause({pos_lit(a), pos_lit(b), neg_lit(out), g});
  solver.add_clause({pos_lit(a), neg_lit(b), pos_lit(out), g});
  solver.add_clause({neg_lit(a), pos_lit(b), pos_lit(out), g});
}

void encode_or(Solver& solver, const std::vector<Var>& ins, Var out) {
  std::vector<Lit> big;
  big.reserve(ins.size() + 1);
  for (Var v : ins) {
    solver.add_clause(neg_lit(v), pos_lit(out));
    big.push_back(pos_lit(v));
  }
  big.push_back(neg_lit(out));
  solver.add_clause(std::move(big));
}

}  // namespace odcfp::sat
