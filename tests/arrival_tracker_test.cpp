#include <gtest/gtest.h>

#include "benchgen/benchmarks.hpp"
#include "common/rng.hpp"
#include "fingerprint/location.hpp"
#include "fingerprint/embedder.hpp"
#include "fingerprint/heuristics.hpp"
#include "timing/sta.hpp"

namespace odcfp {
namespace {

/// The tracker against a fresh full STA of the same netlist, bit for bit:
/// critical delay, every live net's arrival and every live gate's stored
/// delay.
::testing::AssertionResult ArrivalsMatchFreshSta(
    const Netlist& nl, const StaticTimingAnalyzer& sta,
    const ArrivalTracker& tracker, const TimingReport& rep) {
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
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    if (nl.gate(g).is_dead()) continue;
    if (tracker.delay(g) != sta.gate_delay(nl, g)) {
      return ::testing::AssertionFailure()
             << "stored delay of gate " << nl.gate(g).name << ": "
             << tracker.delay(g) << " vs " << sta.gate_delay(nl, g);
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult ArrivalsMatchFreshSta(
    const Netlist& nl, const StaticTimingAnalyzer& sta,
    const ArrivalTracker& tracker) {
  return ArrivalsMatchFreshSta(nl, sta, tracker, sta.analyze(nl));
}

/// ArrivalsMatchFreshSta, plus every live gate's slack.
::testing::AssertionResult MatchesFreshSta(const Netlist& nl,
                                           const StaticTimingAnalyzer& sta,
                                           ArrivalTracker& tracker) {
  const TimingReport rep = sta.analyze(nl);
  ::testing::AssertionResult arrivals =
      ArrivalsMatchFreshSta(nl, sta, tracker, rep);
  if (!arrivals) return arrivals;
  const std::vector<double>& slack = tracker.gate_slack();
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

/// What a tracker holds, copied out for a bit-for-bit comparison.
struct Timing {
  double critical_delay = 0;
  std::vector<double> arrival;  ///< By NetId.
  std::vector<double> delay;    ///< By GateId; dead gates 0.
  std::vector<double> slack;    ///< By GateId.
  bool operator==(const Timing&) const = default;
};

Timing snapshot(const Netlist& nl, ArrivalTracker& tracker) {
  Timing t;
  t.critical_delay = tracker.critical_delay();
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    t.arrival.push_back(tracker.arrival(n));
  }
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    t.delay.push_back(nl.gate(g).is_dead() ? 0 : tracker.delay(g));
  }
  t.slack = tracker.gate_slack();
  return t;
}

/// The circuits every tracker test walks, with their locations.
struct Walk {
  Netlist nl;
  std::vector<FingerprintLocation> locs;

  explicit Walk(const char* name) : nl(make_benchmark(name)) {
    LocationFinderOptions lopts;
    lopts.max_sites_per_location = 4;
    locs = find_locations(nl, lopts);
  }
};

constexpr const char* kWalkCircuits[] = {"c432", "i8", "c3540"};

/// One reduce trial as reactive_reduce runs it: checkpoint, remove,
/// re-time, read the delay, roll back, re-apply, and re-time from the
/// seeds of both sides of the edit. Returns the trial's delay.
double trial(FingerprintEmbedder& e, ArrivalTracker& tracker,
             FingerprintEmbedder::SiteRef ref, std::vector<GateId>& touched,
             std::vector<GateId>& seeds) {
  const Netlist& nl = e.netlist();
  const int option = e.applied_option(ref.loc, ref.site);
  e.touched_gates(ref.loc, ref.site, touched);
  seeds.clear();
  timing_seeds(nl, touched, seeds);
  tracker.checkpoint();
  e.remove(ref.loc, ref.site);
  tracker.update(seeds);
  const double d = tracker.critical_delay();
  tracker.rollback();
  e.apply(ref.loc, ref.site, option);
  e.touched_gates(ref.loc, ref.site, touched);
  timing_seeds(nl, touched, seeds);
  tracker.update(seeds);
  return d;
}

/// Removes the site for good, as a greedy removal or a kick does.
void remove_site(FingerprintEmbedder& e, ArrivalTracker& tracker,
                 FingerprintEmbedder::SiteRef ref,
                 std::vector<GateId>& touched, std::vector<GateId>& seeds) {
  e.touched_gates(ref.loc, ref.site, touched);
  seeds.clear();
  timing_seeds(e.netlist(), touched, seeds);
  e.remove(ref.loc, ref.site);
  tracker.update(seeds);
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
  for (const char* name : kWalkCircuits) {
    Walk w(name);
    Netlist& nl = w.nl;
    const auto& locs = w.locs;
    const StaticTimingAnalyzer sta;
    ASSERT_FALSE(locs.empty()) << name;
    FingerprintEmbedder e(nl, locs);
    ArrivalTracker tracker(nl, sta);
    ASSERT_TRUE(MatchesFreshSta(nl, sta, tracker)) << name;

    std::vector<GateId> touched;
    std::vector<GateId> seeds;
    Rng rng(11);
    for (int step = 0; step < 200; ++step) {
      const std::size_t f =
          static_cast<std::size_t>(rng.next_below(e.num_sites()));
      const auto ref = e.site_ref(f);
      if (e.applied_option(ref.loc, ref.site) == 0) {
        const int opt = 1 + static_cast<int>(rng.next_below(
            locs[ref.loc].sites[ref.site].options.size()));
        e.apply(ref.loc, ref.site, opt);
        e.touched_gates(ref.loc, ref.site, touched);
        seeds.clear();
        timing_seeds(nl, touched, seeds);
        tracker.update(seeds);
      } else {
        remove_site(e, tracker, ref, touched, seeds);
      }
      ASSERT_TRUE(MatchesFreshSta(nl, sta, tracker))
          << name << " step " << step;
    }
  }
}

TEST(ArrivalTracker, RollbackRestoresEveryBitOnEveryAppliedSite) {
  // Trial-remove every site of the all-generic embedding. After the
  // rollback and the re-apply, before any update, the tracker must hold
  // the pre-trial timing bit for bit: the re-apply rebuilt the same
  // gates on the same ids, and slacks read fanins, not fanout order.
  for (const char* name : kWalkCircuits) {
    SCOPED_TRACE(name);
    Walk w(name);
    const Netlist& nl = w.nl;
    const StaticTimingAnalyzer sta;
    FingerprintEmbedder e(w.nl, w.locs);
    e.apply_all_generic();
    ArrivalTracker tracker(nl, sta);
    std::vector<GateId> touched;
    std::vector<GateId> seeds;
    std::size_t trials = 0;
    for (std::size_t f = 0; f < e.num_sites(); ++f) {
      const auto ref = e.site_ref(f);
      const Timing before = snapshot(nl, tracker);
      const int option = e.applied_option(ref.loc, ref.site);
      e.touched_gates(ref.loc, ref.site, touched);
      seeds.clear();
      timing_seeds(nl, touched, seeds);
      tracker.checkpoint();
      e.remove(ref.loc, ref.site);
      tracker.update(seeds);
      tracker.rollback();
      e.apply(ref.loc, ref.site, option);
      ASSERT_TRUE(snapshot(nl, tracker) == before) << "site " << f;
      e.touched_gates(ref.loc, ref.site, touched);
      timing_seeds(nl, touched, seeds);
      tracker.update(seeds);
      ASSERT_TRUE(MatchesFreshSta(nl, sta, tracker)) << "site " << f;
      ++trials;
    }
    EXPECT_EQ(trials, e.num_sites());
    EXPECT_EQ(tracker.orders_taken(), 1u);
  }
}

TEST(ArrivalTracker, ReduceWalkWithRollbackMatchesFreshSta) {
  // A seeded reduce walk: trials that roll back, greedy removals and
  // kicks that keep their removal. One topological order serves it all.
  for (const char* name : kWalkCircuits) {
    SCOPED_TRACE(name);
    Walk w(name);
    const Netlist& nl = w.nl;
    const StaticTimingAnalyzer sta;
    FingerprintEmbedder e(w.nl, w.locs);
    e.apply_all_generic();
    ArrivalTracker tracker(nl, sta);
    std::vector<GateId> touched;
    std::vector<GateId> seeds;
    std::vector<std::size_t> applied;
    Rng rng(23);
    for (int step = 0; step < 300 && e.num_applied() > 0; ++step) {
      applied.clear();
      for (std::size_t f = 0; f < e.num_sites(); ++f) {
        const auto ref = e.site_ref(f);
        if (e.applied_option(ref.loc, ref.site) != 0) applied.push_back(f);
      }
      const auto ref = e.site_ref(
          applied[static_cast<std::size_t>(rng.next_below(applied.size()))]);
      if (rng.next_below(4) != 0) {
        trial(e, tracker, ref, touched, seeds);
      } else {
        remove_site(e, tracker, ref, touched, seeds);
      }
      ASSERT_TRUE(MatchesFreshSta(nl, sta, tracker)) << "step " << step;
    }
    EXPECT_EQ(tracker.orders_taken(), 1u);
  }
}

TEST(ArrivalTracker, SitesAppliedAfterTheOrderStayExact) {
  // proactive_insert's path: the order is taken on the blank circuit and
  // every apply adds gates it does not rank. Updates stay exact without
  // taking a new order; the first gate_slack() takes one.
  for (const char* name : kWalkCircuits) {
    SCOPED_TRACE(name);
    Walk w(name);
    const Netlist& nl = w.nl;
    const StaticTimingAnalyzer sta;
    FingerprintEmbedder e(w.nl, w.locs);
    ArrivalTracker tracker(nl, sta);
    std::vector<GateId> touched;
    std::vector<GateId> seeds;
    Rng rng(5);
    for (std::size_t f = 0; f < e.num_sites(); ++f) {
      const auto ref = e.site_ref(f);
      const int opt = 1 + static_cast<int>(rng.next_below(
          w.locs[ref.loc].sites[ref.site].options.size()));
      e.apply(ref.loc, ref.site, opt);
      e.touched_gates(ref.loc, ref.site, touched);
      seeds.clear();
      timing_seeds(nl, touched, seeds);
      tracker.update(seeds);
      if (rng.next_below(3) == 0) {  // over the limit: take it back
        e.remove(ref.loc, ref.site);
        tracker.update(seeds);
      }
      ASSERT_TRUE(ArrivalsMatchFreshSta(nl, sta, tracker)) << "site " << f;
    }
    EXPECT_EQ(tracker.orders_taken(), 1u);
    ASSERT_TRUE(MatchesFreshSta(nl, sta, tracker));
    EXPECT_EQ(tracker.orders_taken(), 2u);
  }
}

TEST(ArrivalTracker, FailedOrderCheckTakesANewOrder) {
  // A removed gate's id reused upstream of a gate ranked below it: the
  // cached order no longer holds. Updates stay exact, and gate_slack()
  // notices and takes a new order.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const GateId g0 = nl.add_gate_kind(CellKind::kInv, {a}, "g0");
  const GateId g1 =
      nl.add_gate_kind(CellKind::kInv, {nl.gate(g0).output}, "g1");
  const GateId g2 =
      nl.add_gate_kind(CellKind::kInv, {nl.gate(g1).output}, "g2");
  const GateId g3 =
      nl.add_gate_kind(CellKind::kBuf, {nl.gate(g2).output}, "g3");
  nl.add_output(nl.gate(g2).output, "o");
  nl.add_output(nl.gate(g3).output, "o2");
  const StaticTimingAnalyzer sta;
  ArrivalTracker tracker(nl, sta);
  ASSERT_TRUE(MatchesFreshSta(nl, sta, tracker));

  std::vector<GateId> seeds;
  timing_seeds(nl, std::vector<GateId>{g3}, seeds);
  nl.repoint_output_ports(nl.gate(g3).output, nl.gate(g2).output);
  nl.remove_gate(g3);
  tracker.update(seeds);
  ASSERT_TRUE(MatchesFreshSta(nl, sta, tracker));

  // The new inverter takes g3's id (ranked last) and feeds g0 (ranked
  // first).
  const GateId n = nl.add_gate_kind(CellKind::kInv, {a}, "n");
  ASSERT_EQ(n, g3);
  nl.reconnect_pin(g0, 0, nl.gate(n).output);
  seeds.clear();
  timing_seeds(nl, std::vector<GateId>{n, g0}, seeds);
  tracker.update(seeds);
  ASSERT_TRUE(ArrivalsMatchFreshSta(nl, sta, tracker));
  EXPECT_EQ(tracker.orders_taken(), 1u);
  ASSERT_TRUE(MatchesFreshSta(nl, sta, tracker));
  EXPECT_EQ(tracker.orders_taken(), 2u);
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
