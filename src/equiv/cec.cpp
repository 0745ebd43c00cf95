#include "equiv/cec.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>

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

InterfaceMap match_interfaces(const Netlist& a, const Netlist& b) {
  ODCFP_CHECK_MSG(a.inputs().size() == b.inputs().size(),
                  "PI count mismatch: " << a.inputs().size() << " vs "
                                        << b.inputs().size());
  ODCFP_CHECK_MSG(a.outputs().size() == b.outputs().size(),
                  "PO count mismatch: " << a.outputs().size() << " vs "
                                        << b.outputs().size());
  std::unordered_map<std::string, std::size_t> b_pi_index, b_po_index;
  for (std::size_t i = 0; i < b.inputs().size(); ++i) {
    b_pi_index.emplace(b.net(b.inputs()[i]).name, i);
  }
  for (std::size_t i = 0; i < b.outputs().size(); ++i) {
    b_po_index.emplace(b.outputs()[i].name, i);
  }
  InterfaceMap map;
  for (NetId pi : a.inputs()) {
    auto it = b_pi_index.find(a.net(pi).name);
    ODCFP_CHECK_MSG(it != b_pi_index.end(),
                    "PI '" << a.net(pi).name << "' missing in second netlist");
    map.b_pi_for_a_pi.push_back(it->second);
  }
  for (const OutputPort& po : a.outputs()) {
    auto it = b_po_index.find(po.name);
    ODCFP_CHECK_MSG(it != b_po_index.end(),
                    "PO '" << po.name << "' missing in second netlist");
    map.b_po_for_a_po.push_back(it->second);
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
/// which nets get a sweep query: a collision costs one SAT answer, never
/// a wrong merge. Those SAT answers are the expensive queries (the solver
/// must find the rare pattern the simulation missed), and on c1908 they
/// keep shrinking up to 32 words while simulation stays cheap.
constexpr std::size_t kSigWords = 32;
constexpr std::uint64_t kSigSeed = 0x0dc5'1ee9'5eed'0001ull;

/// Evaluates one gate over whole signatures: out[w] = f(ins[0][w], ...,
/// ins[k-1][w]) for every word w. Row-major so the word loops vectorize.
void eval_signature(const TruthTable& tt,
                    const std::vector<const std::uint64_t*>& ins,
                    std::uint64_t* out) {
  std::fill(out, out + kSigWords, 0);
  std::uint64_t term[kSigWords];
  for (unsigned p = 0; p < tt.num_rows(); ++p) {
    if (!tt.eval(p)) continue;
    std::fill(term, term + kSigWords, ~0ull);
    for (std::size_t i = 0; i < ins.size(); ++i) {
      const std::uint64_t flip = ((p >> i) & 1) ? 0 : ~0ull;
      for (std::size_t w = 0; w < kSigWords; ++w) term[w] &= ins[i][w] ^ flip;
    }
    for (std::size_t w = 0; w < kSigWords; ++w) out[w] |= term[w];
  }
}

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
  golden_enc_.emplace(solver_, golden_);

  // Simulate the golden once; every edition is simulated on the same
  // patterns, gate by gate as its fresh cone is encoded. The same pass
  // records each golden gate's fanin variables, the table every query's
  // decision cone is collected from.
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
    eval_signature(golden_.cell_of(g).function, ins, sig_of(gt.output));
    golden_fanins_.set(
        static_cast<std::size_t>(golden_enc_->var_of(gt.output)), fanin_vars);
  }
  golden_fanins_.range.resize(golden_vars);
}

void IncrementalCecSession::FaninTable::set(
    std::size_t slot, const std::vector<sat::Var>& ins) {
  if (range.size() <= slot) range.resize(slot + 1);
  range[slot] = {static_cast<std::uint32_t>(fanins.size()),
                 static_cast<std::uint32_t>(ins.size())};
  fanins.insert(fanins.end(), ins.begin(), ins.end());
}

const std::vector<sat::Var>& IncrementalCecSession::cone_of(sat::Var a,
                                                            sat::Var b,
                                                            sat::Var act) {
  visit_stamp_.resize(static_cast<std::size_t>(solver_.num_vars()), 0);
  if (++visit_gen_ == 0) {
    std::fill(visit_stamp_.begin(), visit_stamp_.end(), 0);
    visit_gen_ = 1;
  }
  const auto golden_vars = static_cast<sat::Var>(golden_fanins_.range.size());
  cone_.clear();
  cone_stack_.assign({a, b});
  while (!cone_stack_.empty()) {
    const sat::Var v = cone_stack_.back();
    cone_stack_.pop_back();
    if (visit_stamp_[static_cast<std::size_t>(v)] == visit_gen_) continue;
    visit_stamp_[static_cast<std::size_t>(v)] = visit_gen_;
    cone_.push_back(v);
    ODCFP_DCHECK(v < golden_vars || v > act);
    const FaninTable& table = v < golden_vars ? golden_fanins_ : fresh_fanins_;
    const auto [offset, count] =
        table.range[static_cast<std::size_t>(v < golden_vars ? v : v - act)];
    for (std::uint32_t i = offset; i < offset + count; ++i) {
      const sat::Var in = table.fanins[i];
      if (visit_stamp_[static_cast<std::size_t>(in)] != visit_gen_) {
        cone_stack_.push_back(in);
      }
    }
  }
  std::sort(cone_.begin(), cone_.end());
  return cone_;
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

  // One conflict quota for every query of this check: the session's own,
  // tightened by the budget's. A query that finds it spent answers
  // kUnknown without running, so a zero quota can never yield a verdict.
  std::int64_t remaining = options_.conflict_limit;
  if (budget != nullptr && budget->conflicts() >= 0 &&
      (remaining < 0 || budget->conflicts() < remaining)) {
    remaining = budget->conflicts();
  }
  const bool limited = remaining >= 0;

  // Everything this check adds sits behind a fresh activation literal.
  const sat::Var act = solver_.push_activation();
  fresh_fanins_.range.clear();
  fresh_fanins_.fanins.clear();
  result.method = "sat-incremental";
  // Solves {act, diff}, diff = a XOR b, against the shared quota,
  // branching only inside the fanin cone of a and b; the solver is back
  // at level 0 afterwards unless the answer is kSat (the caller reads the
  // model first).
  const auto prove = [&](sat::Var diff, sat::Var a, sat::Var b) {
    if (limited && remaining <= 0) return sat::Solver::Result::kUnknown;
    const sat::Solver::Result r =
        solver_.solve({sat::pos_lit(act), sat::pos_lit(diff)}, remaining,
                      budget, &cone_of(a, b, act));
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
  std::vector<std::uint64_t> fresh_sigs;
  std::vector<sat::Var> fresh_ids;
  const auto signature = [&](sat::Var v) -> std::uint64_t* {
    if (v < golden_vars) {
      return &golden_sigs_[static_cast<std::size_t>(v) * kSigWords];
    }
    return &fresh_sigs[static_cast<std::size_t>(v - act) * kSigWords];
  };
  const auto memo_id = [&](sat::Var v) {
    return v < golden_vars ? v : fresh_ids[static_cast<std::size_t>(v - act)];
  };

  // Sweep: every fresh gate gets its memo node and, unless the memo
  // already merged it, its signature; one whose signature matches its
  // golden twin's is a cut-point candidate, answered by the memo when it
  // can and otherwise by a query, merged on UNSAT. A quota or budget
  // death stops the sweep (the rest encodes fresh) and ends the check
  // kUnknown.
  bool exhausted = false;
  std::vector<const std::uint64_t*> ins;
  sat::TseitinOptions topts;
  topts.on_fresh_gate = [&](GateId g, sat::Var fresh,
                            const std::vector<sat::Var>& fanins) {
    const auto slot = static_cast<std::size_t>(fresh - act);
    fresh_fanins_.set(slot, fanins);
    if (exhausted) return fresh;
    fresh_sigs.resize((slot + 1) * kSigWords);
    fresh_ids.resize(slot + 1, sat::kUndefVar);
    const TruthTable& function = edition.cell_of(g).function;
    MemoKey key{function, {}};
    key.fanins.fill(sat::kUndefVar);
    std::transform(fanins.begin(), fanins.end(), key.fanins.begin(),
                   memo_id);
    auto [it, inserted] = memo_.try_emplace(key);
    MemoNode& node = it->second;
    if (inserted) {
      node.id = golden_vars + static_cast<sat::Var>(memo_.size() - 1);
    }
    fresh_ids[slot] = node.id;
    if (node.merged_into != sat::kUndefVar) {
      ++memo_hits_;
      return node.merged_into;
    }

    std::uint64_t* sig = signature(fresh);
    ins.clear();
    for (const sat::Var in : fanins) ins.push_back(signature(in));
    eval_signature(function, ins, sig);
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
  std::vector<sat::Var> b_inputs(edition.inputs().size(), sat::kUndefVar);
  for (std::size_t i = 0; i < golden_.inputs().size(); ++i) {
    b_inputs[map.b_pi_for_a_pi[i]] = golden_enc_->input_vars()[i];
  }
  topts.share_inputs = &b_inputs;
  topts.activation = act;
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
    for (std::size_t done = 0; done < options.sim_words;) {
      if (budget_exhausted(budget)) break;
      const std::size_t chunk = std::min<std::size_t>(
          64, options.sim_words - done);
      std::vector<bool> cex;
      if (!random_sim_equal(a, b, chunk, options.seed + done, &cex)) {
        result.status = CecResult::Status::kDifferent;
        result.counterexample = std::move(cex);
        result.method = "random-sim";
        return Outcome<CecResult>::success(std::move(result));
      }
      done += chunk;
      filter_words += chunk;
      budget_charge(budget, chunk);
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
    while (fallback_words < options.fallback_sim_words &&
           budget_charge(budget, 64)) {
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
