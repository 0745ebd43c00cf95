#include "fingerprint/heuristics.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "benchgen/benchmarks.hpp"
#include "equiv/cec.hpp"

namespace odcfp {
namespace {

struct Fixture {
  Netlist golden;
  StaticTimingAnalyzer sta;
  PowerAnalyzer power;
  Baseline base;
  std::vector<FingerprintLocation> locs;

  explicit Fixture(const char* name)
      : golden(make_benchmark(name)),
        base(Baseline::measure(golden, sta, power)),
        locs(find_locations(golden)) {}
};

TEST(Baseline, MatchesDirectMeasurements) {
  Fixture f("c432");
  EXPECT_DOUBLE_EQ(f.base.area, f.golden.total_area());
  EXPECT_DOUBLE_EQ(f.base.delay, f.sta.critical_delay(f.golden));
  EXPECT_DOUBLE_EQ(f.base.power,
                   f.power.analyze(f.golden).dynamic_power);
  const Overheads none =
      Overheads::measure(f.golden, f.base, f.sta, f.power);
  EXPECT_NEAR(none.area_ratio, 0, 1e-12);
  EXPECT_NEAR(none.delay_ratio, 0, 1e-12);
  EXPECT_NEAR(none.power_ratio, 0, 1e-12);
}

TEST(Reactive, MeetsDelayBudget) {
  Fixture f("c432");
  for (double budget : {0.10, 0.05, 0.01}) {
    Netlist work = f.golden;
    FingerprintEmbedder e(work, f.locs);
    ReactiveOptions opt;
    opt.max_delay_overhead = budget;
    opt.restarts = 2;
    const HeuristicOutcome out =
        reactive_reduce(e, f.base, f.sta, f.power, opt);
    EXPECT_LE(out.overheads.delay_ratio, budget + 1e-9)
        << "budget " << budget;
    EXPECT_GT(out.sites_kept, 0u) << "budget " << budget;
    EXPECT_LT(out.sites_kept, out.sites_total) << "budget " << budget;
    // The netlist still computes the original function.
    EXPECT_TRUE(random_sim_equal(f.golden, work, 16, 3));
    // Outcome bookkeeping is consistent.
    std::size_t nonzero = 0;
    for (const auto& per_loc : out.code) {
      for (auto v : per_loc) nonzero += (v != 0);
    }
    EXPECT_EQ(nonzero, out.sites_kept);
    EXPECT_LE(out.bits_kept, out.bits_total + 1e-9);
  }
}

TEST(Reactive, TighterBudgetKeepsFewerBits) {
  Fixture f("c1908");
  double prev_bits = 1e100;
  for (double budget : {0.20, 0.05, 0.01}) {
    Netlist work = f.golden;
    FingerprintEmbedder e(work, f.locs);
    ReactiveOptions opt;
    opt.max_delay_overhead = budget;
    opt.restarts = 1;
    const HeuristicOutcome out =
        reactive_reduce(e, f.base, f.sta, f.power, opt);
    EXPECT_LE(out.bits_kept, prev_bits + 1e-9) << budget;
    prev_bits = out.bits_kept;
  }
}

TEST(Proactive, MeetsDelayBudgetAndKeepsSites) {
  Fixture f("c432");
  for (double budget : {0.10, 0.01}) {
    Netlist work = f.golden;
    FingerprintEmbedder e(work, f.locs);
    ProactiveOptions opt;
    opt.max_delay_overhead = budget;
    const HeuristicOutcome out =
        proactive_insert(e, f.base, f.sta, f.power, opt);
    EXPECT_LE(out.overheads.delay_ratio, budget + 1e-9);
    EXPECT_GT(out.sites_kept, 0u);
    EXPECT_TRUE(random_sim_equal(f.golden, work, 16, 7));
  }
}

TEST(Heuristics, LooseBudgetKeepsEverything) {
  Fixture f("c880");
  Netlist work = f.golden;
  FingerprintEmbedder e(work, f.locs);
  ReactiveOptions opt;
  opt.max_delay_overhead = 10.0;  // 1000%: nothing needs removing
  const HeuristicOutcome out =
      reactive_reduce(e, f.base, f.sta, f.power, opt);
  EXPECT_EQ(out.sites_kept, out.sites_total);
  EXPECT_NEAR(out.fingerprint_reduction(), 0.0, 1e-12);
}

TEST(Heuristics, OutcomeCodeReproducesNetlistState) {
  Fixture f("c880");
  Netlist work = f.golden;
  FingerprintEmbedder e(work, f.locs);
  ReactiveOptions opt;
  opt.max_delay_overhead = 0.05;
  opt.restarts = 1;
  const HeuristicOutcome out =
      reactive_reduce(e, f.base, f.sta, f.power, opt);
  // Applying the outcome code to a fresh copy gives the same structure.
  Netlist work2 = f.golden;
  FingerprintEmbedder e2(work2, f.locs);
  e2.apply_code(out.code);
  EXPECT_TRUE(random_sim_equal(work, work2, 16, 9));
  EXPECT_NEAR(f.sta.critical_delay(work), f.sta.critical_delay(work2),
              1e-9);
}

TEST(Overheads, ZeroBaselineReportsInfinityNotZero) {
  // A degenerate all-zero baseline must not mask real costs as 0.0.
  Fixture f("c432");
  const Baseline zero;  // area = delay = power = 0
  const Overheads o = Overheads::measure(f.golden, zero, f.sta, f.power);
  EXPECT_TRUE(std::isinf(o.area_ratio));
  EXPECT_TRUE(std::isinf(o.delay_ratio));
  EXPECT_TRUE(std::isinf(o.power_ratio));

  // Zero over zero is a genuine no-op and stays 0: a gateless netlist
  // has no area and no arrivals past the PIs. (Its PI net still switches
  // into the output pad, so the power axis stays infinite.)
  Netlist empty(&default_cell_library(), "empty");
  const NetId a = empty.add_input("a");
  empty.add_output(a, "y");
  const Overheads none = Overheads::measure(empty, zero, f.sta, f.power);
  EXPECT_EQ(none.area_ratio, 0.0);
  EXPECT_EQ(none.delay_ratio, 0.0);
  EXPECT_TRUE(std::isinf(none.power_ratio));
}

TEST(Reactive, DeterministicAcrossRuns) {
  Fixture f("c880");
  ReactiveOptions opt;
  opt.max_delay_overhead = 0.03;
  opt.restarts = 2;
  opt.seed = 5;
  HeuristicOutcome first;
  for (int run = 0; run < 2; ++run) {
    Netlist work = f.golden;
    FingerprintEmbedder e(work, f.locs);
    const HeuristicOutcome out =
        reactive_reduce(e, f.base, f.sta, f.power, opt);
    if (run == 0) {
      first = out;
      continue;
    }
    EXPECT_EQ(out.code, first.code);
    EXPECT_EQ(out.sites_kept, first.sites_kept);
    EXPECT_EQ(out.random_kicks, first.random_kicks);
    EXPECT_EQ(out.overheads.delay_ratio, first.overheads.delay_ratio);
  }
}

TEST(Reactive, KickBudgetBoundsStreaksNotTotals) {
  // Regression: the escape counter used to accumulate over the whole
  // run, so max_random_kicks failed escapes *spread across* phases of
  // healthy greedy progress ended it prematurely. The cap now bounds
  // only consecutive kicks; totals may legitimately exceed it.
  Fixture f("c1908");
  bool saw_reset = false;
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull}) {
    Netlist work = f.golden;
    FingerprintEmbedder e(work, f.locs);
    ReactiveOptions opt;
    opt.max_delay_overhead = 0.005;  // tight: forces repeated escapes
    opt.restarts = 1;
    opt.max_random_kicks = 1;
    // Trial only the single most critical site per iteration: its removal
    // often fails to shorten a parallel near-critical path, which is
    // exactly the greedy dead-end the random escape exists for.
    opt.max_candidates_per_iteration = 1;
    opt.seed = seed;
    const HeuristicOutcome out =
        reactive_reduce(e, f.base, f.sta, f.power, opt);
    // The streak cap is a hard invariant...
    EXPECT_LE(out.max_consecutive_kicks,
              static_cast<std::size_t>(opt.max_random_kicks));
    // ...while the total is allowed past it once greedy progress
    // intervenes (impossible under the old cumulative semantics).
    saw_reset |= out.random_kicks >
                 static_cast<std::size_t>(opt.max_random_kicks);
  }
  EXPECT_TRUE(saw_reset);
}

}  // namespace
}  // namespace odcfp
