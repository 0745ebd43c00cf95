// Unit tests for the resource-budget / graceful-degradation primitives:
// Budget axes (deadline, cancellation),
// Outcome taxonomy invariants, and the budgeted SAT solver entry point.
#include "common/budget.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "sat/solver.hpp"
#include "sat/tseitin.hpp"

namespace odcfp {
namespace {

TEST(Budget, UnlimitedByDefault) {
  Budget b;
  EXPECT_FALSE(b.has_deadline());
  for (int i = 0; i < 10000; ++i) {
    EXPECT_FALSE(b.exhausted());
  }
}

TEST(Budget, DeadlineExpires) {
  Budget b = Budget::deadline_ms(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(b.expired_now());
  EXPECT_TRUE(b.exhausted());
  EXPECT_LT(b.remaining_seconds(), 0.0);
}

TEST(Budget, AmortizedDeadlineIsEventuallySeen) {
  Budget b = Budget::deadline_ms(0);
  // The clock is only read every kClockPeriod calls, so a fresh budget
  // may report non-exhausted a few times — but never forever.
  bool seen = false;
  for (int i = 0; i < 200 && !seen; ++i) seen = b.exhausted();
  EXPECT_TRUE(seen);
  // Once the deadline was observed, every later check is exhausted.
  EXPECT_TRUE(b.exhausted());
}

TEST(Budget, FarDeadlineDoesNotExpire) {
  Budget b = Budget::deadline_ms(1000 * 3600);
  EXPECT_FALSE(b.exhausted());
  EXPECT_GT(b.remaining_seconds(), 3000.0);
}

TEST(Budget, CancellationTokenSharedAcrossCopies) {
  CancelToken token;
  const CancelToken copy = token;
  Budget b;
  b.with_cancel(copy);
  EXPECT_FALSE(b.exhausted());
  token.cancel();
  EXPECT_TRUE(b.exhausted());
}

TEST(Budget, NullPointerHelpersMeanUnlimited) {
  EXPECT_FALSE(budget_exhausted(nullptr));
  CancelToken token;
  token.cancel();
  Budget b;
  b.with_cancel(token);
  EXPECT_TRUE(budget_exhausted(&b));
}

TEST(Outcome, SuccessInvariants) {
  auto o = Outcome<int>::success(42);
  EXPECT_TRUE(o.ok());
  EXPECT_EQ(o.status(), Status::kOk);
  EXPECT_TRUE(o.has_value());
  EXPECT_EQ(*o, 42);
  EXPECT_DOUBLE_EQ(o.confidence(), 1.0);
}

TEST(Outcome, ExhaustedWithDegradedValue) {
  auto o = Outcome<int>::exhausted(7, "budget died", 0.5);
  EXPECT_FALSE(o.ok());
  EXPECT_EQ(o.status(), Status::kExhausted);
  EXPECT_TRUE(o.has_value());
  EXPECT_EQ(o.value(), 7);
  EXPECT_DOUBLE_EQ(o.confidence(), 0.5);
  EXPECT_EQ(o.message(), "budget died");
}

TEST(Outcome, ExhaustedWithoutValue) {
  auto o = Outcome<int>::exhausted("nothing computed");
  EXPECT_EQ(o.status(), Status::kExhausted);
  EXPECT_FALSE(o.has_value());
  EXPECT_DOUBLE_EQ(o.confidence(), 0.0);
}

TEST(Outcome, ErrorStatuses) {
  EXPECT_EQ(Outcome<int>::infeasible("no").status(), Status::kInfeasible);
  EXPECT_EQ(Outcome<int>::malformed("bad").status(),
            Status::kMalformedInput);
  EXPECT_FALSE(Outcome<int>::malformed("bad").has_value());
}

TEST(StatusNames, AllDistinct) {
  EXPECT_STREQ(to_string(Status::kOk), "ok");
  EXPECT_STREQ(to_string(Status::kExhausted), "exhausted");
  EXPECT_STREQ(to_string(Status::kInfeasible), "infeasible");
  EXPECT_STREQ(to_string(Status::kMalformedInput), "malformed-input");
}

/// Pigeonhole: n+1 pigeons, n holes — UNSAT with an exponential resolution
/// proof, the classic way to make a CDCL solver burn conflicts.
void encode_pigeonhole(sat::Solver& solver, int holes) {
  const int pigeons = holes + 1;
  std::vector<std::vector<sat::Var>> var(pigeons);
  for (int p = 0; p < pigeons; ++p) {
    for (int h = 0; h < holes; ++h) var[p].push_back(solver.new_var());
  }
  for (int p = 0; p < pigeons; ++p) {
    std::vector<sat::Lit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(sat::pos_lit(var[p][h]));
    solver.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        solver.add_clause(sat::neg_lit(var[p1][h]), sat::neg_lit(var[p2][h]));
      }
    }
  }
}

TEST(SolverBudget, ExpiredDeadlineStopsImmediately) {
  sat::Solver solver;
  encode_pigeonhole(solver, 7);
  Budget b = Budget::deadline_ms(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  b.expired_now();  // force the clock read
  EXPECT_EQ(solver.solve({}, -1, &b), sat::Solver::Result::kUnknown);
  EXPECT_EQ(solver.stats().decisions, 0u);
}

TEST(SolverBudget, CancellationStopsTheSearch) {
  sat::Solver solver;
  encode_pigeonhole(solver, 9);
  CancelToken token;
  token.cancel();
  Budget b;
  b.with_cancel(token);
  EXPECT_EQ(solver.solve({}, -1, &b), sat::Solver::Result::kUnknown);
}

TEST(SolverBudget, UnlimitedBudgetStillProves) {
  sat::Solver solver;
  encode_pigeonhole(solver, 4);
  Budget b;
  EXPECT_EQ(solver.solve({}, -1, &b), sat::Solver::Result::kUnsat);
}

}  // namespace
}  // namespace odcfp
