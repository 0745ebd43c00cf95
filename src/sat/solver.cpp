#include "sat/solver.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/telemetry.hpp"
#include "common/trace.hpp"

namespace odcfp::sat {

namespace {

/// Luby restart multiplier: conflicts before the first restart.
constexpr std::uint64_t kRestartBase = 64;

}  // namespace

Var Solver::new_var() {
  const Var v = static_cast<Var>(assigns_.size());
  assigns_.push_back(LBool::kUndef);
  phase_.push_back(false);
  level_.push_back(0);
  reason_.push_back(kNoReason);
  activity_.push_back(0.0);
  heap_pos_.push_back(-1);
  decision_stamp_.push_back(0);
  seen_.push_back(false);
  watches_.emplace_back();
  watches_.emplace_back();
  return v;
}

LBool Solver::value_var(Var v) const { return assigns_[v]; }

LBool Solver::value(Lit l) const {
  const LBool a = assigns_[l.var()];
  if (a == LBool::kUndef) return LBool::kUndef;
  const bool val = (a == LBool::kTrue) != l.negated();
  return val ? LBool::kTrue : LBool::kFalse;
}

bool Solver::add_clause(std::vector<Lit> lits) {
  if (!ok_) return false;
  ODCFP_CHECK(decision_level() == 0);
  // Normalize: sort, dedupe, drop tautologies and false literals.
  std::sort(lits.begin(), lits.end(), [](Lit a, Lit b) {
    return a.code() < b.code();
  });
  std::vector<Lit> out;
  for (std::size_t i = 0; i < lits.size(); ++i) {
    const Lit l = lits[i];
    ODCFP_CHECK(l.var() >= 0 && l.var() < num_vars());
    if (i + 1 < lits.size() && lits[i + 1] == ~l) return true;  // tautology
    if (!out.empty() && out.back() == l) continue;              // duplicate
    if (value(l) == LBool::kTrue && level_[l.var()] == 0) return true;
    if (value(l) == LBool::kFalse && level_[l.var()] == 0) continue;
    out.push_back(l);
  }
  if (out.empty()) {
    ok_ = false;
    return false;
  }
  if (out.size() == 1) {
    if (value(out[0]) == LBool::kUndef) {
      enqueue(out[0], kNoReason);
      if (propagate() != kNoReason) {
        ok_ = false;
        return false;
      }
    }
    return true;
  }
  const ClauseRef cr = static_cast<ClauseRef>(clauses_.size());
  clauses_.push_back({std::move(out), /*learned=*/false});
  attach_clause(cr);
  return true;
}

void Solver::attach_clause(ClauseRef cr) {
  const Clause& c = clauses_[cr];
  ODCFP_DCHECK(c.lits.size() >= 2);
  watches_[(~c.lits[0]).code()].push_back({cr, c.lits[1]});
  watches_[(~c.lits[1]).code()].push_back({cr, c.lits[0]});
}

void Solver::pop_activation(Var act) {
  retire_activation(act);
  simplify();
}

void Solver::retire_activation(Var act) {
  ODCFP_CHECK(act >= 0 && act < num_vars());
  if (!ok_) return;
  backtrack(0);
  if (value_var(act) == LBool::kTrue) {
    // pos_lit(act) was derived at level 0 — the caller asserted the
    // activation positively somewhere, which the protocol forbids.
    // Retiring it would make the whole formula UNSAT; reflect that.
    ok_ = false;
    return;
  }
  if (value_var(act) == LBool::kUndef) {
    enqueue(neg_lit(act), kNoReason);
    if (propagate() != kNoReason) {
      ok_ = false;
    }
  }
}

std::size_t Solver::simplify() {
  if (!ok_) return 0;
  backtrack(0);
  if (propagate() != kNoReason) {
    ok_ = false;
    return 0;
  }
  // Level-0 assignments are permanent facts and their antecedent clauses
  // are about to be compacted away; conflict analysis never resolves on
  // level-0 variables, so the reasons can be dropped.
  for (const Lit l : trail_) reason_[l.var()] = kNoReason;

  std::size_t removed = 0;
  std::vector<Lit> units;
  std::vector<Clause> kept;
  kept.reserve(clauses_.size());
  for (Clause& c : clauses_) {
    bool satisfied = false;
    std::size_t keep = 0;
    for (const Lit l : c.lits) {
      const LBool v = value(l);  // every assignment is level 0 here
      if (v == LBool::kTrue) {
        satisfied = true;
        break;
      }
      if (v == LBool::kFalse) continue;
      c.lits[keep] = l;
      ++keep;
    }
    if (satisfied) {
      ++removed;
      continue;
    }
    c.lits.resize(keep);
    // An all-false clause would have been a propagation conflict above.
    ODCFP_CHECK(keep >= 1);
    if (keep == 1) {
      units.push_back(c.lits[0]);
      ++removed;
      continue;
    }
    kept.push_back(std::move(c));
  }
  clauses_ = std::move(kept);
  // Clause refs changed: rebuild every watch list from scratch.
  for (auto& ws : watches_) ws.clear();
  for (ClauseRef cr = 0; cr < static_cast<ClauseRef>(clauses_.size());
       ++cr) {
    attach_clause(cr);
  }
  for (const Lit u : units) {
    if (value(u) == LBool::kFalse) {
      ok_ = false;
      return removed;
    }
    if (value(u) == LBool::kUndef) enqueue(u, kNoReason);
  }
  if (propagate() != kNoReason) ok_ = false;
  return removed;
}

void Solver::enqueue(Lit l, ClauseRef reason) {
  ODCFP_DCHECK(value(l) == LBool::kUndef);
  assigns_[l.var()] = l.negated() ? LBool::kFalse : LBool::kTrue;
  level_[l.var()] = decision_level();
  reason_[l.var()] = reason;
  phase_[l.var()] = !l.negated();
  trail_.push_back(l);
}

Solver::ClauseRef Solver::propagate() {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;
    std::vector<Watcher>& ws = watches_[p.code()];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < ws.size(); ++i) {
      const Watcher w = ws[i];
      if (value(w.blocker) == LBool::kTrue) {
        ws[keep++] = w;
        continue;
      }
      Clause& c = clauses_[w.clause];
      // Ensure the false literal (~p) is at position 1.
      const Lit not_p = ~p;
      if (c.lits[0] == not_p) std::swap(c.lits[0], c.lits[1]);
      ODCFP_DCHECK(c.lits[1] == not_p);
      if (value(c.lits[0]) == LBool::kTrue) {
        ws[keep++] = {w.clause, c.lits[0]};
        continue;
      }
      // Find a new literal to watch.
      bool moved = false;
      for (std::size_t k = 2; k < c.lits.size(); ++k) {
        if (value(c.lits[k]) != LBool::kFalse) {
          std::swap(c.lits[1], c.lits[k]);
          watches_[(~c.lits[1]).code()].push_back({w.clause, c.lits[0]});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Unit or conflicting.
      ws[keep++] = w;
      if (value(c.lits[0]) == LBool::kFalse) {
        // Conflict: copy remaining watchers and report.
        for (std::size_t j = i + 1; j < ws.size(); ++j) ws[keep++] = ws[j];
        ws.resize(keep);
        qhead_ = trail_.size();
        return w.clause;
      }
      enqueue(c.lits[0], w.clause);
    }
    ws.resize(keep);
  }
  return kNoReason;
}

void Solver::analyze(ClauseRef conflict, std::vector<Lit>& learnt,
                     int& bt_level) {
  learnt.clear();
  learnt.push_back(Lit());  // placeholder for the asserting literal
  int counter = 0;
  Lit p;
  std::size_t index = trail_.size();
  ClauseRef reason = conflict;

  std::vector<Var> to_clear;
  do {
    ODCFP_DCHECK(reason != kNoReason);
    const Clause& c = clauses_[reason];
    const std::size_t start = p.is_undef() ? 0 : 1;
    for (std::size_t i = start; i < c.lits.size(); ++i) {
      const Lit q = c.lits[i];
      const Var v = q.var();
      if (seen_[v] || level_[v] == 0) continue;
      seen_[v] = true;
      to_clear.push_back(v);
      bump_var(v);
      if (level_[v] == decision_level()) {
        ++counter;
      } else {
        learnt.push_back(q);
      }
    }
    // Find the next literal on the trail to resolve on.
    while (!seen_[trail_[index - 1].var()]) --index;
    --index;
    p = trail_[index];
    seen_[p.var()] = false;
    reason = reason_[p.var()];
    --counter;
  } while (counter > 0);
  learnt[0] = ~p;

  // Compute the backtrack level (second-highest level in the clause) and
  // move that literal to position 1 for watching.
  if (learnt.size() == 1) {
    bt_level = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learnt.size(); ++i) {
      if (level_[learnt[i].var()] > level_[learnt[max_i].var()]) max_i = i;
    }
    std::swap(learnt[1], learnt[max_i]);
    bt_level = level_[learnt[1].var()];
  }
  for (Var v : to_clear) seen_[v] = false;
}

void Solver::backtrack(int level) {
  if (decision_level() <= level) return;
  const std::size_t lim = static_cast<std::size_t>(trail_lim_[level]);
  for (std::size_t i = trail_.size(); i-- > lim;) {
    const Var v = trail_[i].var();
    assigns_[v] = LBool::kUndef;
    reason_[v] = kNoReason;
    if (decidable(v) && !heap_contains(v)) heap_insert(v);
  }
  trail_.resize(lim);
  trail_lim_.resize(static_cast<std::size_t>(level));
  qhead_ = trail_.size();
}

bool Solver::make_decision() {
  Var v = kUndefVar;
  while (!heap_.empty()) {
    v = heap_pop();
    if (assigns_[v] == LBool::kUndef) break;
    v = kUndefVar;
  }
  if (v == kUndefVar) return false;
  ++stats_.decisions;
  trail_lim_.push_back(static_cast<int>(trail_.size()));
  enqueue(Lit(v, !phase_[v]), kNoReason);
  return true;
}

std::uint64_t Solver::luby(std::uint64_t i) {
  // Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
  std::uint64_t k = 1;
  while ((1ull << (k + 1)) <= i + 1) ++k;
  while ((1ull << k) - 1 != i + 1) {
    i -= (1ull << k) - 1;
    k = 1;
    while ((1ull << (k + 1)) <= i + 1) ++k;
  }
  return 1ull << (k - 1);
}

void Solver::reset_heuristics(const std::vector<Var>* decision_vars) {
  var_inc_ = 1.0;
  for (const Var v : heap_) heap_pos_[v] = -1;
  heap_.clear();
  if (++decision_epoch_ == 0) {
    std::fill(decision_stamp_.begin(), decision_stamp_.end(), 0);
    decision_epoch_ = 1;
  }
  const auto admit = [this](Var v) {
    decision_stamp_[v] = decision_epoch_;
    activity_[v] = 0.0;
    phase_[v] = false;
    if (assigns_[v] == LBool::kUndef && !heap_contains(v)) heap_insert(v);
  };
  if (decision_vars == nullptr) {
    for (Var v = 0; v < num_vars(); ++v) admit(v);
    return;
  }
  for (const Var v : *decision_vars) {
    ODCFP_CHECK(v >= 0 && v < num_vars());
    admit(v);
  }
}

Solver::Result Solver::solve(const std::vector<Lit>& assumptions,
                             std::int64_t conflict_limit,
                             const Budget* budget,
                             const std::vector<Var>* decision_vars) {
  TELEM_SPAN("sat.solve");
  const Stats before = stats_;
  const Result result =
      solve_internal(assumptions, conflict_limit, budget, decision_vars);
  last_call_stats_ = stats_ - before;
  const Stats& d = last_call_stats_;
  // Verdict-gated commit: aborted calls (kUnknown) go to sat.aborted_* so
  // cumulative counters never double-count work a retry or an escalation
  // is about to redo. Everything a retry re-earns lands in the
  // plain sat.* counters exactly once — on the call that returns the
  // verdict.
  if (result == Result::kUnknown) {
    TELEM_COUNT("sat.aborted_queries", 1);
    TELEM_COUNT("sat.aborted_decisions",
                static_cast<std::int64_t>(d.decisions));
    TELEM_COUNT("sat.aborted_propagations",
                static_cast<std::int64_t>(d.propagations));
    TELEM_COUNT("sat.aborted_conflicts",
                static_cast<std::int64_t>(d.conflicts));
  } else {
    TELEM_COUNT("sat.queries", 1);
    TELEM_COUNT("sat.decisions", static_cast<std::int64_t>(d.decisions));
    TELEM_COUNT("sat.propagations",
                static_cast<std::int64_t>(d.propagations));
    TELEM_COUNT("sat.conflicts", static_cast<std::int64_t>(d.conflicts));
    TELEM_HIST("sat.conflicts_per_call",
               static_cast<std::uint64_t>(d.conflicts));
    TELEM_COUNT("sat.restarts", static_cast<std::int64_t>(d.restarts));
    TELEM_COUNT("sat.learned_clauses",
                static_cast<std::int64_t>(d.learned_clauses));
  }
  (void)d;  // used only when telemetry is compiled in
  return result;
}

Solver::Result Solver::solve_internal(const std::vector<Lit>& assumptions,
                                      std::int64_t conflict_limit,
                                      const Budget* budget,
                                      const std::vector<Var>* decision_vars) {
  if (!ok_) return Result::kUnsat;
  backtrack(0);
  // Every call starts from the pristine heuristic state a fresh solver
  // would have, so logically independent queries cannot influence each
  // other's search through leaked activities or saved phases.
  reset_heuristics(decision_vars);
  // The budget's deadline / cancellation axes are checked per conflict.
  // A zero limit answers before the search reaches its first conflict.
  if (conflict_limit == 0 || budget_exhausted(budget)) {
    return Result::kUnknown;
  }

  std::uint64_t restart_count = 0;
  std::uint64_t restart_budget = kRestartBase * luby(restart_count);
  std::uint64_t conflicts_since_restart = 0;
  std::int64_t total_conflicts = 0;

  for (;;) {
    const ClauseRef conflict = propagate();
    if (conflict != kNoReason) {
      ++stats_.conflicts;
      ++conflicts_since_restart;
      ++total_conflicts;
      if (decision_level() == 0) {
        ok_ = false;
        return Result::kUnsat;
      }
      std::vector<Lit> learnt;
      int bt_level = 0;
      analyze(conflict, learnt, bt_level);
      // The learnt clause may flip a literal below the assumption levels;
      // the loop below re-applies the assumptions the backjump undid.
      backtrack(bt_level);
      if (learnt.size() == 1) {
        if (value(learnt[0]) == LBool::kFalse) {
          ok_ = decision_level() > 0;
          if (!ok_) return Result::kUnsat;
          backtrack(0);
        }
        if (value(learnt[0]) == LBool::kUndef) {
          enqueue(learnt[0], kNoReason);
        }
      } else {
        const ClauseRef cr = static_cast<ClauseRef>(clauses_.size());
        clauses_.push_back({std::move(learnt), /*learned=*/true});
        ++stats_.learned_clauses;
        attach_clause(cr);
        if (value(clauses_[cr].lits[0]) == LBool::kUndef) {
          enqueue(clauses_[cr].lits[0], cr);
        }
      }
      decay_activities();
      if (conflict_limit >= 0 && total_conflicts >= conflict_limit) {
        backtrack(0);
        return Result::kUnknown;
      }
      // Conflicts are the solver's unit of progress: one budget poll per
      // conflict, and exhausted() amortizes its own clock reads for the
      // deadline axis.
      if (budget != nullptr && budget->exhausted()) {
        backtrack(0);
        return Result::kUnknown;
      }
      if (conflicts_since_restart >= restart_budget) {
        ++stats_.restarts;
        ++restart_count;
        restart_budget = kRestartBase * luby(restart_count);
        conflicts_since_restart = 0;
        backtrack(0);
        trace::instant("sat.restart");
      }
      continue;
    }

    // Re-apply assumptions that were undone by backtracking.
    if (decision_level() < static_cast<int>(assumptions.size())) {
      const Lit a = assumptions[static_cast<std::size_t>(decision_level())];
      if (value(a) == LBool::kFalse) return Result::kUnsat;
      if (value(a) == LBool::kTrue) {
        // Already implied; open an empty decision level for bookkeeping.
        trail_lim_.push_back(static_cast<int>(trail_.size()));
      } else {
        trail_lim_.push_back(static_cast<int>(trail_.size()));
        enqueue(a, kNoReason);
      }
      continue;
    }

    if (!make_decision()) return Result::kSat;
  }
}

bool Solver::model_value(Var v) const {
  ODCFP_CHECK(v >= 0 && v < num_vars());
  // Unassigned vars (outside the decision set) default to false.
  return assigns_[v] == LBool::kTrue;
}

// ---- VSIDS ----

void Solver::bump_var(Var v) {
  // A variable outside the decision set is never decided, so its activity
  // is dead until a later solve resets it.
  if (!decidable(v)) return;
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_contains(v)) heap_up(heap_pos_[v]);
}

void Solver::decay_activities() { var_inc_ /= 0.95; }

bool Solver::heap_contains(Var v) const { return heap_pos_[v] >= 0; }

void Solver::heap_insert(Var v) {
  heap_pos_[v] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  heap_up(heap_pos_[v]);
}

Var Solver::heap_pop() {
  const Var top = heap_[0];
  heap_pos_[top] = -1;
  if (heap_.size() > 1) {
    heap_[0] = heap_.back();
    heap_pos_[heap_[0]] = 0;
    heap_.pop_back();
    heap_down(0);
  } else {
    heap_.pop_back();
  }
  return top;
}

void Solver::heap_up(int i) {
  const Var v = heap_[i];
  while (i > 0) {
    const int parent = (i - 1) / 2;
    if (activity_[heap_[parent]] >= activity_[v]) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i]] = i;
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[v] = i;
}

void Solver::heap_down(int i) {
  const Var v = heap_[i];
  const int n = static_cast<int>(heap_.size());
  for (;;) {
    int child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n &&
        activity_[heap_[child + 1]] > activity_[heap_[child]]) {
      ++child;
    }
    if (activity_[heap_[child]] <= activity_[v]) break;
    heap_[i] = heap_[child];
    heap_pos_[heap_[i]] = i;
    i = child;
  }
  heap_[i] = v;
  heap_pos_[v] = i;
}

}  // namespace odcfp::sat
