#include <gtest/gtest.h>

#include "benchgen/benchmarks.hpp"
#include "common/rng.hpp"
#include "fingerprint/embedder.hpp"
#include "fingerprint/heuristics.hpp"
#include "timing/sta.hpp"

namespace odcfp {
namespace {

/// The tracker against a fresh full STA of the same netlist, bit for bit:
/// critical delay, every live net's arrival and every live gate's slack.
::testing::AssertionResult MatchesFreshSta(const Netlist& nl,
                                           const StaticTimingAnalyzer& sta,
                                           const ArrivalTracker& tracker) {
  const TimingReport rep = sta.analyze(nl);
  if (tracker.critical_delay() != rep.critical_delay) {
    return ::testing::AssertionFailure()
           << "critical delay " << tracker.critical_delay() << " vs "
           << rep.critical_delay;
  }
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const Net& net = nl.net(n);
    if (!net.is_pi && net.driver == kInvalidGate) continue;
    if (tracker.arrival(n) != rep.arrival[n]) {
      return ::testing::AssertionFailure()
             << "arrival of net " << net.name << ": " << tracker.arrival(n)
             << " vs " << rep.arrival[n];
    }
  }
  const std::vector<double> slack = tracker.gate_slack();
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    if (nl.gate(g).is_dead()) continue;
    if (slack[g] != rep.gate_slack[g]) {
      return ::testing::AssertionFailure()
             << "slack of gate " << nl.gate(g).name << ": " << slack[g]
             << " vs " << rep.gate_slack[g];
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(ArrivalTracker, MatchesFullStaInitially) {
  const Netlist nl = make_benchmark("c880");
  const StaticTimingAnalyzer sta;
  const ArrivalTracker tracker(nl, sta);
  EXPECT_DOUBLE_EQ(tracker.critical_delay(), sta.critical_delay(nl));
  const TimingReport rep = sta.analyze(nl);
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    if (nl.net(n).driver == kInvalidGate && !nl.net(n).is_pi) continue;
    EXPECT_DOUBLE_EQ(tracker.arrival(n), rep.arrival[n]) << n;
  }
}

TEST(ArrivalTracker, TracksFingerprintApplyRemoveExactly) {
  // Random apply/remove walks over every modification option, seeded by
  // the heuristics' rule. Stored delays make a missing seed stick, so any
  // gap in timing_seeds shows up as a stale arrival or slack.
  LocationFinderOptions lopts;
  lopts.max_sites_per_location = 4;
  for (const char* name : {"c432", "i8", "c3540"}) {
    Netlist nl = make_benchmark(name);
    const StaticTimingAnalyzer sta;
    const auto locs = find_locations(nl, lopts);
    ASSERT_FALSE(locs.empty()) << name;
    FingerprintEmbedder e(nl, locs);
    ArrivalTracker tracker(nl, sta);
    ASSERT_TRUE(MatchesFreshSta(nl, sta, tracker)) << name;

    Rng rng(11);
    for (int step = 0; step < 200; ++step) {
      const std::size_t f =
          static_cast<std::size_t>(rng.next_below(e.num_sites()));
      const auto ref = e.site_ref(f);
      if (e.applied_option(ref.loc, ref.site) == 0) {
        const int opt = 1 + static_cast<int>(rng.next_below(
            locs[ref.loc].sites[ref.site].options.size()));
        e.apply(ref.loc, ref.site, opt);
        tracker.update(timing_seeds(nl, e.touched_gates(ref.loc, ref.site)));
      } else {
        const auto pre = timing_seeds(nl, e.touched_gates(ref.loc, ref.site));
        e.remove(ref.loc, ref.site);
        tracker.update(pre);
      }
      ASSERT_TRUE(MatchesFreshSta(nl, sta, tracker))
          << name << " step " << step;
    }
  }
}

TEST(ArrivalTracker, FullRecomputeResyncsAfterUntrackedEdits) {
  Netlist nl = make_benchmark("c17");
  const StaticTimingAnalyzer sta;
  ArrivalTracker tracker(nl, sta);
  // Untracked edit...
  const NetId a = nl.inputs()[0];
  const GateId g = nl.add_gate_kind(CellKind::kInv, {a});
  nl.add_output(nl.gate(g).output, "extra");
  // ...then resync.
  tracker.full_recompute();
  EXPECT_DOUBLE_EQ(tracker.critical_delay(), sta.critical_delay(nl));
}

}  // namespace
}  // namespace odcfp
