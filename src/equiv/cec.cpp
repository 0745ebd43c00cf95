#include "equiv/cec.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "sat/tseitin.hpp"
#include "sim/simulator.hpp"

namespace odcfp {

namespace {

/// PI/PO correspondence between two netlists, matched by name.
struct InterfaceMap {
  std::vector<std::size_t> b_pi_for_a_pi;  // index into b.inputs()
  std::vector<std::size_t> b_po_for_a_po;  // index into b.outputs()
};

/// Looks each name of `a` up in `b`'s own name tables, so a match
/// allocates the two index vectors and nothing per name.
InterfaceMap match_interfaces(const Netlist& a, const Netlist& b) {
  ODCFP_CHECK_MSG(a.inputs().size() == b.inputs().size(),
                  "PI count mismatch: " << a.inputs().size() << " vs "
                                        << b.inputs().size());
  ODCFP_CHECK_MSG(a.outputs().size() == b.outputs().size(),
                  "PO count mismatch: " << a.outputs().size() << " vs "
                                        << b.outputs().size());
  InterfaceMap map;
  map.b_pi_for_a_pi.reserve(a.inputs().size());
  map.b_po_for_a_po.reserve(a.outputs().size());
  const std::vector<NetId>& b_pis = b.inputs();
  for (std::size_t i = 0; i < a.inputs().size(); ++i) {
    const std::string& name = a.net(a.inputs()[i]).name;
    const NetId net = b.find_net(name);
    ODCFP_CHECK_MSG(net != kInvalidNet && b.net(net).is_pi,
                    "PI '" << name << "' missing in second netlist");
    // Clones list their PIs in the same order; anything else is searched.
    const std::size_t j =
        b_pis[i] == net ? i
                        : static_cast<std::size_t>(
                              std::find(b_pis.begin(), b_pis.end(), net) -
                              b_pis.begin());
    map.b_pi_for_a_pi.push_back(j);
  }
  for (const OutputPort& po : a.outputs()) {
    const std::uint32_t j = b.find_output(po.name);
    ODCFP_CHECK_MSG(j != kInvalidPort,
                    "PO '" << po.name << "' missing in second netlist");
    map.b_po_for_a_po.push_back(j);
  }
  return map;
}

/// Extracts the PI assignment for pattern bit `bit` from simulator `sim`.
std::vector<bool> extract_pattern(const Simulator& sim, const Netlist& nl,
                                  unsigned bit) {
  std::vector<bool> pattern;
  pattern.reserve(nl.inputs().size());
  for (NetId pi : nl.inputs()) {
    pattern.push_back((sim.value(pi) >> bit) & 1);
  }
  return pattern;
}

bool words_differ(const Simulator& sa, const Simulator& sb,
                  const Netlist& a, const Netlist& b,
                  const InterfaceMap& map, unsigned* diff_bit) {
  const std::vector<std::uint64_t> oa = sa.output_words();
  const std::vector<std::uint64_t> ob = sb.output_words();
  std::uint64_t diff = 0;
  for (std::size_t i = 0; i < oa.size(); ++i) {
    diff |= oa[i] ^ ob[map.b_po_for_a_po[i]];
  }
  (void)a;
  (void)b;
  if (diff == 0) return false;
  *diff_bit = static_cast<unsigned>(__builtin_ctzll(diff));
  return true;
}

/// Trivially-equivalent verdict for degenerate miters; `diagnostic` names
/// the reason so callers can tell "proved" from "nothing to prove".
CecResult trivially_equivalent(const char* diagnostic) {
  CecResult result;
  result.status = CecResult::Status::kEquivalent;
  result.method = diagnostic;
  TELEM_COUNT("cec.trivial", 1);
  return result;
}

/// Encodes the full (a vs b) miter into `solver` and asserts "some output
/// differs". Returns a's PI variables for counterexample extraction.
/// Requires at least one output pair (degenerate miters must be handled
/// by the caller before any clause reaches the solver).
std::vector<sat::Var> encode_miter(sat::Solver& solver, const Netlist& a,
                                   const Netlist& b,
                                   const InterfaceMap& map) {
  ODCFP_CHECK(!a.outputs().empty());
  const sat::TseitinEncoding enc_a(solver, a);
  // b shares a's PI vars, permuted into b's PI order.
  std::vector<sat::Var> b_inputs(b.inputs().size(), sat::kUndefVar);
  for (std::size_t i = 0; i < a.inputs().size(); ++i) {
    b_inputs[map.b_pi_for_a_pi[i]] = enc_a.input_vars()[i];
  }
  const sat::TseitinEncoding enc_b(solver, b, &b_inputs);

  std::vector<sat::Var> diffs;
  for (std::size_t i = 0; i < a.outputs().size(); ++i) {
    const sat::Var va = enc_a.var_of(a.outputs()[i].net);
    const sat::Var vb =
        enc_b.var_of(b.outputs()[map.b_po_for_a_po[i]].net);
    const sat::Var d = solver.new_var();
    sat::encode_xor(solver, va, vb, d);
    diffs.push_back(d);
  }
  const sat::Var any_diff = solver.new_var();
  sat::encode_or(solver, diffs, any_diff);
  solver.add_clause(sat::pos_lit(any_diff));
  return enc_a.input_vars();
}

}  // namespace

bool random_sim_equal(const Netlist& a, const Netlist& b,
                      std::size_t num_words, std::uint64_t seed,
                      std::vector<bool>* counterexample) {
  const InterfaceMap map = match_interfaces(a, b);
  Rng rng(seed);
  Simulator sa(a), sb(b);
  for (std::size_t w = 0; w < num_words; ++w) {
    sa.randomize_inputs(rng);
    for (std::size_t i = 0; i < a.inputs().size(); ++i) {
      sb.set_input_word(map.b_pi_for_a_pi[i], sa.value(a.inputs()[i]));
    }
    sa.run();
    sb.run();
    unsigned bit = 0;
    if (words_differ(sa, sb, a, b, map, &bit)) {
      if (counterexample != nullptr) {
        *counterexample = extract_pattern(sa, a, bit);
      }
      return false;
    }
  }
  return true;
}

bool exhaustive_equal(const Netlist& a, const Netlist& b,
                      std::vector<bool>* counterexample) {
  const InterfaceMap map = match_interfaces(a, b);
  const std::size_t n = a.inputs().size();
  ODCFP_CHECK_MSG(n <= 24, "exhaustive_equal limited to 24 inputs");
  Simulator sa(a), sb(b);
  const std::uint64_t total = 1ull << n;
  for (std::uint64_t base = 0; base < total; base += 64) {
    sa.load_counting_patterns(base);
    for (std::size_t i = 0; i < n; ++i) {
      sb.set_input_word(map.b_pi_for_a_pi[i], sa.value(a.inputs()[i]));
    }
    sa.run();
    sb.run();
    unsigned bit = 0;
    if (words_differ(sa, sb, a, b, map, &bit)) {
      // Patterns past `total` wrap; only report in-range differences.
      if (base + bit < total) {
        if (counterexample != nullptr) {
          *counterexample = extract_pattern(sa, a, bit);
        }
        return false;
      }
    }
  }
  return true;
}

CecResult check_equivalence_sat(const Netlist& a, const Netlist& b,
                                std::int64_t conflict_limit,
                                const Budget* budget) {
  TELEM_SPAN("cec.sat_proof");
  const InterfaceMap map = match_interfaces(a, b);
  // Degenerate miter: nothing to compare, hence equivalent by definition.
  // Handled before the encoder — an empty diff disjunction would otherwise
  // force any_diff false and poison the solver with a level-0 conflict.
  if (a.outputs().empty()) return trivially_equivalent("trivial-no-outputs");

  sat::Solver solver;
  const std::vector<sat::Var> a_inputs = encode_miter(solver, a, b, map);

  CecResult result;
  result.method = "sat";
  switch (solver.solve({}, conflict_limit, budget)) {
    case sat::Solver::Result::kUnsat:
      result.status = CecResult::Status::kEquivalent;
      break;
    case sat::Solver::Result::kSat: {
      result.status = CecResult::Status::kDifferent;
      for (std::size_t i = 0; i < a.inputs().size(); ++i) {
        result.counterexample.push_back(solver.model_value(a_inputs[i]));
      }
      break;
    }
    case sat::Solver::Result::kUnknown:
      result.status = CecResult::Status::kUnknown;
      break;
  }
  result.sat_stats = solver.stats();
  return result;
}

namespace {

/// Random-simulation words (64 patterns each) behind every signature the
/// session compares, and the seed of their patterns. Signatures only pick
/// which nets get a sweep proof: a collision costs one SAT answer, never
/// a wrong merge. Those SAT answers are the expensive queries (the solver
/// must find the rare pattern the simulation missed), and on c1908 they
/// keep shrinking up to 32 words while simulation stays cheap.
constexpr std::size_t kSigWords = 32;
constexpr std::uint64_t kSigSeed = 0x0dc5'1ee9'5eed'0001ull;

/// Window proof caps. A window grows through at most kWindowLevels levels
/// of golden gates and is abandoned once it holds more than
/// kWindowMaxNodes nodes or kWindowMaxLeaves free leaves; it is evaluated
/// after every level with at most kWindowEvalLeaves leaves, whose
/// 2^kWindowEvalLeaves patterns fill 64 words, one evaluator block.
constexpr int kWindowLevels = 4;
constexpr std::size_t kWindowMaxNodes = 128;
constexpr std::size_t kWindowMaxLeaves = 20;
constexpr std::size_t kWindowEvalLeaves = 12;

}  // namespace

std::size_t IncrementalCecSession::MemoKeyHash::operator()(
    const MemoKey& key) const {
  std::uint64_t h = key.function.bits() * 0x9e3779b97f4a7c15ull +
                    static_cast<std::uint64_t>(key.function.num_inputs());
  for (const sat::Var v : key.fanins) {
    h = (h ^ static_cast<std::uint32_t>(v)) * 0xff51afd7ed558ccdull;
  }
  return static_cast<std::size_t>(h ^ (h >> 32));
}

IncrementalCecSession::IncrementalCecSession(const Netlist& golden,
                                             const Options& options)
    : golden_(golden), options_(options) {
  // The session keeps the solver's CLAUSES warm (the golden encoding and
  // every base-circuit lemma learned along the way) but runs each check
  // with pristine HEURISTICS, which the solver resets at every solve().
  // Measured on the batch-throughput workload, VSIDS activity carried
  // from one edition's proof misdirects the next one — the hot variables
  // of a retired cone are free nonsense to its successor — and reset
  // checks are ~20% faster. Reset is also the stronger determinism
  // story: each verdict depends only on the clause database, which the
  // batch layer makes a pure function of the buyer index.
  // Only variables: a golden gate's clauses reach the solver once a
  // query's cone first reads it (define_cone).
  golden_enc_.emplace(solver_, golden_,
                      sat::TseitinOptions{.skip_clauses = true});

  // Simulate the golden once; every edition is simulated on the same
  // patterns, gate by gate as its fresh cone is encoded. The same pass
  // records each golden gate's function and fanin variables, the table
  // every query's decision cone and every window is collected from.
  const auto golden_vars = static_cast<std::size_t>(solver_.num_vars());
  golden_sigs_.assign(golden_vars * kSigWords, 0);
  const auto sig_of = [&](NetId net) {
    return &golden_sigs_[static_cast<std::size_t>(golden_enc_->var_of(net)) *
                         kSigWords];
  };
  Rng rng(kSigSeed);
  for (const NetId pi : golden_.inputs()) {
    std::uint64_t* sig = sig_of(pi);
    for (std::size_t w = 0; w < kSigWords; ++w) sig[w] = rng.next_u64();
  }
  std::vector<const std::uint64_t*> ins;
  std::vector<sat::Var> fanin_vars;
  for (const GateId g : golden_.topo_order()) {
    const Gate& gt = golden_.gate(g);
    ins.clear();
    fanin_vars.clear();
    for (const NetId in : gt.fanins) {
      ins.push_back(sig_of(in));
      fanin_vars.push_back(golden_enc_->var_of(in));
    }
    const TruthTable& function = golden_.cell_of(g).function;
    eval_signature(function, ins, sig_of(gt.output), kSigWords);
    golden_gates_.set(static_cast<std::size_t>(golden_enc_->var_of(gt.output)),
                      function, fanin_vars);
  }
  golden_gates_.resize(golden_vars);
}

void IncrementalCecSession::GateTable::set(std::size_t slot,
                                           const TruthTable& fn,
                                           const std::vector<sat::Var>& ins) {
  if (range.size() <= slot) resize(slot + 1);
  function[slot] = &fn;
  range[slot] = {static_cast<std::uint32_t>(fanins.size()),
                 static_cast<std::uint32_t>(ins.size())};
  fanins.insert(fanins.end(), ins.begin(), ins.end());
}

void IncrementalCecSession::GateTable::resize(std::size_t slots) {
  function.resize(slots, nullptr);
  range.resize(slots);
  defined.resize(slots, false);
}

void IncrementalCecSession::GateTable::clear() {
  function.clear();
  range.clear();
  fanins.clear();
  defined.clear();
}

std::pair<IncrementalCecSession::GateTable*, std::size_t>
IncrementalCecSession::gate_of(sat::Var v, sat::Var act) {
  const auto golden_vars = static_cast<sat::Var>(golden_gates_.range.size());
  ODCFP_DCHECK(v < golden_vars || v > act);
  if (v < golden_vars) return {&golden_gates_, static_cast<std::size_t>(v)};
  return {&fresh_gates_, static_cast<std::size_t>(v - act)};
}

const std::vector<sat::Var>& IncrementalCecSession::cone_of(sat::Var a,
                                                            sat::Var b,
                                                            sat::Var act) {
  visit_stamp_.resize(static_cast<std::size_t>(solver_.num_vars()), 0);
  if (++visit_gen_ == 0) {
    std::fill(visit_stamp_.begin(), visit_stamp_.end(), 0);
    visit_gen_ = 1;
  }
  cone_.clear();
  cone_stack_.assign({a, b});
  while (!cone_stack_.empty()) {
    const sat::Var v = cone_stack_.back();
    cone_stack_.pop_back();
    if (visit_stamp_[static_cast<std::size_t>(v)] == visit_gen_) continue;
    visit_stamp_[static_cast<std::size_t>(v)] = visit_gen_;
    cone_.push_back(v);
    const auto [table, slot] = gate_of(v, act);
    for (const sat::Var in : table->fanins_of(slot)) {
      if (visit_stamp_[static_cast<std::size_t>(in)] != visit_gen_) {
        cone_stack_.push_back(in);
      }
    }
  }
  std::sort(cone_.begin(), cone_.end());
  return cone_;
}

void IncrementalCecSession::define_cone(const std::vector<sat::Var>& cone,
                                        sat::Var act) {
  for (const sat::Var v : cone) {
    const auto [table, slot] = gate_of(v, act);
    if (table->function[slot] == nullptr || table->defined[slot]) continue;
    table->defined[slot] = true;
    sat::encode_gate(solver_, *table->function[slot], table->fanins_of(slot),
                     v, table == &fresh_gates_ ? act : sat::kUndefVar);
  }
}

bool IncrementalCecSession::window_proves(sat::Var fresh, sat::Var twin,
                                          sat::Var act) {
  enum Role : std::uint8_t { kOutside = 0, kNode, kLeaf };
  const auto num_vars = static_cast<std::size_t>(solver_.num_vars());
  win_role_.resize(num_vars, kOutside);
  win_slot_.resize(num_vars);
  win_nodes_.clear();
  win_leaves_.clear();
  const auto role = [&](sat::Var v) -> std::uint8_t& {
    return win_role_[static_cast<std::size_t>(v)];
  };
  const auto fanins = [&](sat::Var v) {
    const auto [table, slot] = gate_of(v, act);
    return table->fanins_of(slot);
  };
  const auto golden_gate = [&](sat::Var v) {
    return static_cast<std::size_t>(v) < golden_gates_.range.size() &&
           golden_gates_.function[static_cast<std::size_t>(v)] != nullptr;
  };
  // Turns `v` into a node; every fanin not in the window yet is a leaf.
  const auto expand = [&](sat::Var v) {
    role(v) = kNode;
    win_nodes_.push_back(v);
    for (const sat::Var in : fanins(v)) {
      if (role(in) == kOutside) {
        role(in) = kLeaf;
        win_leaves_.push_back(in);
      }
    }
  };

  // Level 0: every fresh variable in `fresh`'s cone, and the twin.
  expand(fresh);
  for (std::size_t i = 0;
       i < win_nodes_.size() && win_nodes_.size() <= kWindowMaxNodes; ++i) {
    for (const sat::Var in : fanins(win_nodes_[i])) {
      if (in > act && role(in) == kLeaf) expand(in);
    }
  }
  if (golden_gate(twin)) {
    if (role(twin) != kNode) expand(twin);
  } else if (role(twin) == kOutside) {
    role(twin) = kLeaf;
    win_leaves_.push_back(twin);
  }

  const auto tables_equal = [&] {
    // Ascending variable order is topological: the encoders allocate
    // golden and fresh variables gate by gate in topological order.
    std::sort(win_nodes_.begin(), win_nodes_.end());
    const std::size_t leaves = win_leaves_.size();
    const std::size_t words =
        leaves <= 6 ? 1 : std::size_t{1} << (leaves - 6);
    win_tables_.resize((leaves + win_nodes_.size()) * words);
    for (std::size_t i = 0; i < leaves; ++i) {
      win_slot_[static_cast<std::size_t>(win_leaves_[i])] =
          static_cast<std::uint32_t>(i);
      for (std::size_t w = 0; w < words; ++w) {
        win_tables_[i * words + w] = projection_word(i, w);
      }
    }
    const auto table = [&](sat::Var v) {
      return &win_tables_[win_slot_[static_cast<std::size_t>(v)] * words];
    };
    for (std::size_t j = 0; j < win_nodes_.size(); ++j) {
      const sat::Var v = win_nodes_[j];
      win_slot_[static_cast<std::size_t>(v)] =
          static_cast<std::uint32_t>(leaves + j);
      eval_ins_.clear();
      for (const sat::Var in : fanins(v)) eval_ins_.push_back(table(in));
      const auto [gates, slot] = gate_of(v, act);
      eval_signature(*gates->function[slot], eval_ins_, table(v), words);
    }
    return std::equal(table(fresh), table(fresh) + words, table(twin));
  };

  bool proved = false;
  for (int level = 0;; ++level) {
    // Absorb every leaf gate whose fanins are all nodes: it adds no leaf.
    for (bool absorbed = true; absorbed;) {
      absorbed = false;
      for (const sat::Var v : win_leaves_) {
        if (role(v) != kLeaf || !golden_gate(v)) continue;
        const auto in = fanins(v);
        if (std::all_of(in.begin(), in.end(),
                        [&](sat::Var x) { return role(x) == kNode; })) {
          role(v) = kNode;
          win_nodes_.push_back(v);
          absorbed = true;
        }
      }
    }
    std::erase_if(win_leaves_, [&](sat::Var v) { return role(v) != kLeaf; });
    if (win_nodes_.size() > kWindowMaxNodes ||
        win_leaves_.size() > kWindowMaxLeaves) {
      break;
    }
    if (win_leaves_.size() <= kWindowEvalLeaves && tables_equal()) {
      proved = true;
      break;
    }
    if (level == kWindowLevels) break;
    // Grow: every leaf that is a golden gate becomes a node; the leaves
    // this adds are appended past `n`.
    bool grew = false;
    for (std::size_t i = 0, n = win_leaves_.size(); i < n; ++i) {
      if (golden_gate(win_leaves_[i])) {
        expand(win_leaves_[i]);
        grew = true;
      }
    }
    if (!grew) break;
  }
  for (const sat::Var v : win_nodes_) role(v) = kOutside;
  for (const sat::Var v : win_leaves_) role(v) = kOutside;
  return proved;
}

CecResult IncrementalCecSession::check(const Netlist& edition,
                                       const Budget* budget) {
  TELEM_SPAN("cec.incremental_check");
  ++checks_;
  if (golden_.outputs().empty()) {
    match_interfaces(golden_, edition);  // still surfaces typed errors
    return trivially_equivalent("trivial-no-outputs");
  }
  CecResult result;
  if (!healthy_) {
    // A previous check left the solver in a state the session cannot
    // vouch for; refuse to answer and let the caller escalate.
    result.status = CecResult::Status::kUnknown;
    result.method = "sat-incremental-unhealthy";
    return result;
  }
  const InterfaceMap map = match_interfaces(golden_, edition);

  // One conflict quota for every query of this check: the session's.
  // A query that finds it spent answers kUnknown without running, and a
  // sweep candidate that finds it spent gets no window either, so a zero
  // quota can never yield a verdict.
  std::int64_t remaining = options_.conflict_limit;
  const bool limited = remaining >= 0;

  // Everything this check adds sits behind a fresh activation literal.
  const sat::Var act = solver_.push_activation();
  fresh_gates_.clear();
  result.method = "sat-incremental";
  const auto quota_spent = [&] { return limited && remaining <= 0; };
  // Solves {act, diff}, diff = a XOR b, against the shared quota,
  // branching only inside the fanin cone of a and b, whose gates are
  // defined first; the solver is back at level 0 afterwards unless the
  // answer is kSat (the caller reads the model first).
  const auto prove = [&](sat::Var diff, sat::Var a, sat::Var b) {
    if (quota_spent()) return sat::Solver::Result::kUnknown;
    const std::vector<sat::Var>& cone = cone_of(a, b, act);
    define_cone(cone, act);
    const sat::Solver::Result r =
        solver_.solve({sat::pos_lit(act), sat::pos_lit(diff)}, remaining,
                      budget, &cone);
    result.sat_stats += solver_.last_call_stats();
    if (limited) {
      remaining -=
          static_cast<std::int64_t>(solver_.last_call_stats().conflicts);
    }
    if (r != sat::Solver::Result::kSat) solver_.backtrack_to_root();
    return r;
  };

  // Simulation signatures: golden variables carry the golden simulation,
  // this check's fresh variables (all above `act`) the edition's, on the
  // same patterns. Memo ids likewise: a golden variable is its own id, a
  // fresh one has the id of the memo node its gate was keyed to.
  const auto golden_vars =
      static_cast<sat::Var>(golden_sigs_.size() / kSigWords);
  fresh_sigs_.clear();
  fresh_ids_.clear();
  const auto signature = [&](sat::Var v) -> std::uint64_t* {
    if (v < golden_vars) {
      return &golden_sigs_[static_cast<std::size_t>(v) * kSigWords];
    }
    return &fresh_sigs_[static_cast<std::size_t>(v - act) * kSigWords];
  };
  const auto memo_id = [&](sat::Var v) {
    return v < golden_vars ? v
                           : fresh_ids_[static_cast<std::size_t>(v - act)];
  };

  // Sweep: every fresh gate gets its memo node and, unless the memo
  // already merged it, its signature; one whose signature matches its
  // golden twin's is a cut-point candidate, answered by the memo when it
  // can, else merged by a window proof, else by a query's UNSAT. A quota
  // or budget death stops the sweep (the rest encodes fresh) and ends the
  // check kUnknown.
  bool exhausted = false;
  sat::TseitinOptions topts;
  topts.on_fresh_gate = [&](GateId g, sat::Var fresh,
                            const std::vector<sat::Var>& fanins) {
    const auto slot = static_cast<std::size_t>(fresh - act);
    const TruthTable& function = edition.cell_of(g).function;
    fresh_gates_.set(slot, function, fanins);
    if (exhausted) return fresh;
    fresh_sigs_.resize((slot + 1) * kSigWords);
    fresh_ids_.resize(slot + 1, sat::kUndefVar);
    MemoKey key{function, {}};
    key.fanins.fill(sat::kUndefVar);
    std::transform(fanins.begin(), fanins.end(), key.fanins.begin(),
                   memo_id);
    auto [it, inserted] = memo_.try_emplace(key);
    MemoNode& node = it->second;
    if (inserted) {
      node.id = golden_vars + static_cast<sat::Var>(memo_.size() - 1);
    }
    fresh_ids_[slot] = node.id;
    if (node.merged_into != sat::kUndefVar) {
      ++memo_hits_;
      return node.merged_into;
    }

    std::uint64_t* sig = signature(fresh);
    eval_ins_.clear();
    for (const sat::Var in : fanins) eval_ins_.push_back(signature(in));
    eval_signature(function, eval_ins_, sig, kSigWords);
    const sat::Var twin = golden_enc_->var_or_undef(edition.gate(g).output);
    if (twin == sat::kUndefVar ||
        !std::equal(sig, sig + kSigWords, signature(twin))) {
      return fresh;
    }
    if (std::find(node.refuted.begin(), node.refuted.end(), twin) !=
        node.refuted.end()) {
      ++memo_hits_;
      return fresh;
    }
    if (quota_spent()) {
      exhausted = true;
      return fresh;
    }
    if (window_proves(fresh, twin, act)) {
      ++merges_;
      ++window_merges_;
      node.merged_into = twin;
      return twin;
    }
    const sat::Var diff = solver_.new_var();
    sat::encode_xor(solver_, twin, fresh, diff, act);
    switch (prove(diff, twin, fresh)) {
      case sat::Solver::Result::kUnsat:
        ++merges_;
        node.merged_into = twin;
        return twin;
      case sat::Solver::Result::kSat:
        // A signature collision: the nets differ on some pattern the
        // simulation missed. Keep the fresh variable.
        node.refuted.push_back(twin);
        solver_.backtrack_to_root();
        return fresh;
      case sat::Solver::Result::kUnknown:
        exhausted = true;
        return fresh;
    }
    return fresh;
  };
  // The edition shares the golden PI variables, permuted into ITS PI
  // order by the name-matched map (identity for the clone editions batch
  // verification produces, but a name-permuted same-interface netlist
  // must not be wired positionally).
  shared_inputs_.assign(edition.inputs().size(), sat::kUndefVar);
  for (std::size_t i = 0; i < golden_.inputs().size(); ++i) {
    shared_inputs_[map.b_pi_for_a_pi[i]] = golden_enc_->input_vars()[i];
  }
  topts.share_inputs = &shared_inputs_;
  topts.skip_clauses = true;
  topts.base = &golden_;
  topts.base_encoding = &*golden_enc_;
  const sat::TseitinEncoding enc(solver_, edition, topts);
  gates_reused_ += enc.reused_gates();
  gates_encoded_ += enc.encoded_gates();

  if (exhausted) {
    result.status = CecResult::Status::kUnknown;
    retire_scope(act);
    return result;
  }
  if (enc.encoded_gates() == 0) {
    // Nothing fresh at all: every output reuses the golden variable.
    // This is the second degenerate-miter shape; answer it before the
    // solver ever sees an empty disjunction.
    retire_scope(act);
    return trivially_equivalent("trivial-identical-cone");
  }

  // Outputs the sweep did not merge are proven one by one, in PO order,
  // sharing the activation literal so lemmas learned refuting output i
  // stay live for the later ones.
  result.status = CecResult::Status::kEquivalent;
  for (std::size_t po = 0; po < golden_.outputs().size(); ++po) {
    const sat::Var va = golden_enc_->var_of(golden_.outputs()[po].net);
    const sat::Var vb =
        enc.var_of(edition.outputs()[map.b_po_for_a_po[po]].net);
    if (va == vb) continue;
    const sat::Var d = solver_.new_var();
    sat::encode_xor(solver_, va, vb, d, act);
    const sat::Solver::Result r = prove(d, va, vb);
    if (r == sat::Solver::Result::kSat) {
      result.status = CecResult::Status::kDifferent;
      // Extract the model before retirement backtracks it away.
      for (std::size_t i = 0; i < golden_.inputs().size(); ++i) {
        result.counterexample.push_back(
            solver_.model_value(golden_enc_->input_vars()[i]));
      }
      break;
    }
    if (r == sat::Solver::Result::kUnknown) {
      result.status = CecResult::Status::kUnknown;
      break;
    }
  }
  retire_scope(act);
  return result;
}

void IncrementalCecSession::retire_scope(sat::Var act) {
  solver_.pop_activation(act);
  // The base formula alone is satisfiable, so a healthy session can never
  // become globally UNSAT; if it did, stop answering from it.
  healthy_ = solver_.ok();
}

CecResult verify_equivalence(const Netlist& a, const Netlist& b,
                             std::size_t sim_words, std::uint64_t seed,
                             std::int64_t sat_conflict_limit) {
  TELEM_SPAN("cec.verify");
  CecResult result;
  std::vector<bool> cex;
  if (!random_sim_equal(a, b, sim_words, seed, &cex)) {
    result.status = CecResult::Status::kDifferent;
    result.counterexample = std::move(cex);
    result.method = "random-sim";
    return result;
  }
  if (a.inputs().size() <= 16) {
    result.method = "exhaustive";
    result.status = exhaustive_equal(a, b, &result.counterexample)
                        ? CecResult::Status::kEquivalent
                        : CecResult::Status::kDifferent;
    return result;
  }
  return check_equivalence_sat(a, b, sat_conflict_limit);
}

namespace {

/// Random-simulation words (64 patterns each) of the budgeted checker:
/// the cheap refutation filter before the proof, and the cap on the
/// fallback simulation once the proof has exhausted its budget.
constexpr std::size_t kFilterSimWords = 256;
constexpr std::size_t kFallbackSimWords = 4096;

}  // namespace

Outcome<CecResult> verify_equivalence_budgeted(
    const Netlist& a, const Netlist& b, const Budget* budget,
    const BudgetedCecOptions& options) {
  // Interface mismatches are a caller contract violation, not a proof
  // failure: surface them as typed input errors.
  try {
    match_interfaces(a, b);
  } catch (const CheckError& e) {
    return Outcome<CecResult>::malformed(e.what());
  }
  ODCFP_FAULT_POINT("cec.verify");

  TELEM_SPAN("cec.verify_budgeted");

  // Stage 1: cheap refutation filter (chunked so a deadline can stop it).
  CecResult result;
  std::size_t filter_words = 0;
  {
    TELEM_SPAN("cec.sim_filter");
    for (std::size_t done = 0; done < kFilterSimWords;) {
      if (budget_exhausted(budget)) break;
      const std::size_t chunk =
          std::min<std::size_t>(64, kFilterSimWords - done);
      std::vector<bool> cex;
      if (!random_sim_equal(a, b, chunk, options.seed + done, &cex)) {
        result.status = CecResult::Status::kDifferent;
        result.counterexample = std::move(cex);
        result.method = "random-sim";
        return Outcome<CecResult>::success(std::move(result));
      }
      done += chunk;
      filter_words += chunk;
    }
    TELEM_COUNT("cec.filter_words",
                static_cast<std::int64_t>(filter_words));
  }

  // Stage 2: the SAT proof, bounded by the budget.
  if (!budget_exhausted(budget)) {
    result = check_equivalence_sat(a, b, options.sat_conflict_limit, budget);
    if (result.status != CecResult::Status::kUnknown) {
      return Outcome<CecResult>::success(std::move(result));
    }
  } else {
    result.status = CecResult::Status::kUnknown;
    result.method = "sat";
  }

  // Stage 3: the proof died — burn whatever budget remains on additional
  // refutation simulation. Finding a difference here is still exact; not
  // finding one yields an Exhausted verdict whose confidence grows with
  // the amount of accumulated simulation evidence.
  std::size_t fallback_words = 0;
  {
    TELEM_SPAN("cec.sim_fallback");
    while (fallback_words < kFallbackSimWords &&
           !budget_exhausted(budget)) {
      std::vector<bool> cex;
      if (!random_sim_equal(a, b, 64,
                            options.seed + 0x9e3779b9ull + fallback_words,
                            &cex)) {
        result.status = CecResult::Status::kDifferent;
        result.counterexample = std::move(cex);
        result.method = "sim-fallback";
        return Outcome<CecResult>::success(std::move(result));
      }
      fallback_words += 64;
    }
    TELEM_COUNT("cec.fallback_words",
                static_cast<std::int64_t>(fallback_words));
  }

  const std::size_t evidence_words = filter_words + fallback_words;
  // Monotone evidence score in [0, 1): 64-pattern words of agreeing
  // random simulation. Not a calibrated probability — a tie-breaking
  // confidence for callers that must act on an unproven verdict.
  const double confidence =
      static_cast<double>(evidence_words) /
      (static_cast<double>(evidence_words) + 64.0);
  result.status = CecResult::Status::kUnknown;
  result.method = "sat+sim-fallback";
  TELEM_COUNT("cec.exhausted", 1);
  log::warn("cec.exhausted")
      .field("conflicts",
             static_cast<std::int64_t>(result.sat_stats.conflicts))
      .field("evidence_words", evidence_words)
      .field("confidence", confidence)
      .field("died_in", budget != nullptr && budget->died_in() != nullptr
                            ? budget->died_in()
                            : "");
  std::ostringstream msg;
  msg << "SAT proof exhausted its budget after "
      << result.sat_stats.conflicts << " conflicts; "
      << evidence_words * 64 << " random patterns found no difference";
  return Outcome<CecResult>::exhausted(std::move(result), msg.str(),
                                       confidence)
      .with_exhausted_at(budget != nullptr ? budget->died_in() : nullptr);
}

}  // namespace odcfp
