#include "fingerprint/heuristics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "common/trace.hpp"

namespace odcfp {

Baseline Baseline::measure(const Netlist& golden,
                           const StaticTimingAnalyzer& sta,
                           const PowerAnalyzer& power) {
  Baseline b;
  b.area = golden.total_area();
  b.delay = sta.critical_delay(golden);
  b.power = power.analyze(golden).dynamic_power;
  return b;
}

namespace {

/// (current - base) / base, except that a degenerate zero baseline must
/// not mask a real cost: any positive current value over a zero baseline
/// is an infinite relative overhead, not zero. Zero over zero is a true
/// no-op and stays 0.
double overhead_ratio(double current, double base) {
  if (base > 0) return current / base - 1.0;
  return current > 0 ? std::numeric_limits<double>::infinity() : 0.0;
}

}  // namespace

Overheads Overheads::measure(const Netlist& nl, const Baseline& base,
                             const StaticTimingAnalyzer& sta,
                             const PowerAnalyzer& power) {
  return measure(nl, base, sta.critical_delay(nl), power);
}

Overheads Overheads::measure(const Netlist& nl, const Baseline& base,
                             double critical_delay,
                             const PowerAnalyzer& power) {
  Overheads o;
  o.area_ratio = overhead_ratio(nl.total_area(), base.area);
  o.delay_ratio = overhead_ratio(critical_delay, base.delay);
  o.power_ratio =
      overhead_ratio(power.analyze(nl).dynamic_power, base.power);
  return o;
}

namespace {

double site_bits(const FingerprintLocation& loc, std::size_t site) {
  return std::log2(1.0 +
                   static_cast<double>(loc.sites[site].options.size()));
}

/// Bits of capacity currently applied.
double applied_bits(const FingerprintEmbedder& e) {
  double bits = 0;
  for (std::size_t f = 0; f < e.num_sites(); ++f) {
    const auto ref = e.site_ref(f);
    if (e.applied_option(ref.loc, ref.site) != 0) {
      bits += site_bits(e.locations()[ref.loc], ref.site);
    }
  }
  return bits;
}

}  // namespace

void timing_seeds(const Netlist& nl, std::span<const GateId> gates,
                  std::vector<GateId>& seeds) {
  for (GateId g : gates) {
    if (g >= nl.num_gates() || nl.gate(g).is_dead()) continue;
    seeds.push_back(g);
    for (NetId in : nl.gate(g).fanins) {
      const GateId d = nl.net(in).driver;
      if (d != kInvalidGate) seeds.push_back(d);
    }
    for (const FanoutRef& ref : nl.net(nl.gate(g).output).fanouts) {
      seeds.push_back(ref.gate);
    }
  }
}

namespace {

HeuristicOutcome make_outcome(FingerprintEmbedder& e,
                              const Baseline& baseline,
                              const StaticTimingAnalyzer& sta,
                              const PowerAnalyzer& power,
                              std::size_t evals) {
  HeuristicOutcome out;
  out.code = e.current_code();
  out.sites_total = e.num_sites();
  out.sites_kept = e.num_applied();
  out.bits_total = total_capacity_bits(e.locations());
  out.bits_kept = applied_bits(e);
  out.overheads = Overheads::measure(e.netlist(), baseline, sta, power);
  out.sta_evaluations = evals;
  return out;
}

/// Gates with slack at or below this are "critical" for trial filtering.
constexpr double kCriticalSlack = 1e-9;

struct ReactiveRun {
  FingerprintCode code;
  std::size_t sites_kept = 0;
  double bits_kept = 0;
  double delay = std::numeric_limits<double>::infinity();
  bool met_budget = false;
  bool truncated = false;  ///< Resource budget died mid-run.
  std::size_t random_kicks = 0;           ///< Kicks taken, whole run.
  std::size_t max_consecutive_kicks = 0;  ///< Longest kick streak.
};

ReactiveRun reactive_once(FingerprintEmbedder& e,
                          const StaticTimingAnalyzer& sta,
                          double budget, const ReactiveOptions& opt,
                          std::uint64_t seed, std::size_t& evals) {
  const Netlist& nl = e.netlist();
  e.remove_all();
  e.apply_all_generic();
  Rng rng(seed);
  // From here on the run only removes modifications, and a trial
  // re-applies the one it removed on the gate ids it freed, so the order
  // the tracker takes now serves every iteration.
  ArrivalTracker tracker(nl, sta);
  ++evals;
  double cur = tracker.critical_delay();
  // `kicks` counts *consecutive* failed-greedy escapes: a successful
  // greedy removal resets it, so max_random_kicks bounds how long the
  // heuristic flails without progress, not how often it may ever kick
  // over an arbitrarily long run. (The counter used to be cumulative,
  // which ended long runs that were still making greedy progress.)
  int kicks = 0;
  std::size_t total_kicks = 0;
  std::size_t max_streak = 0;
  bool truncated = false;
  // Buffers every iteration reuses, so that trials allocate nothing.
  std::vector<std::pair<double, std::size_t>> scored;  // (slack, site)
  std::vector<std::size_t> applied;
  std::vector<GateId> touched;
  std::vector<GateId> seeds;
  // Removes the site for good and re-times what the removal changed.
  const auto remove_site = [&](FingerprintEmbedder::SiteRef ref) {
    e.touched_gates(ref.loc, ref.site, touched);
    seeds.clear();
    timing_seeds(nl, touched, seeds);
    e.remove(ref.loc, ref.site);
    tracker.update(seeds);
    cur = tracker.critical_delay();
  };

  while (cur > budget && e.num_applied() > 0) {
    ODCFP_FAULT_POINT("heuristic.reactive.iter");
    TELEM_COUNT("heur.iterations", 1);
    // Checkpoint: one budget poll per iteration. Every modification is
    // applied or removed atomically, so stopping here leaves a valid
    // netlist.
    if (budget_exhausted(opt.budget)) {
      truncated = true;
      break;
    }
    // Applied sites whose touched gates (or the drivers feeding them) are
    // timing-critical: only their removal can shorten the critical path.
    // The tracker's slacks are a full STA's, without re-timing forward.
    const std::vector<double>& slacks = tracker.gate_slack();
    ++evals;
    scored.clear();
    for (std::size_t f = 0; f < e.num_sites(); ++f) {
      const auto ref = e.site_ref(f);
      if (e.applied_option(ref.loc, ref.site) == 0) continue;
      double min_slack = std::numeric_limits<double>::infinity();
      e.touched_gates(ref.loc, ref.site, touched);
      for (GateId g : touched) {
        min_slack = std::min(min_slack, slacks[g]);
        for (NetId in : nl.gate(g).fanins) {
          const GateId d = nl.net(in).driver;
          if (d != kInvalidGate) {
            min_slack = std::min(min_slack, slacks[d]);
          }
        }
      }
      if (min_slack <= kCriticalSlack) scored.emplace_back(min_slack, f);
    }
    // Most critical first; bound the per-iteration trial count.
    std::sort(scored.begin(), scored.end());
    if (opt.max_candidates_per_iteration > 0 &&
        static_cast<int>(scored.size()) >
            opt.max_candidates_per_iteration) {
      scored.resize(
          static_cast<std::size_t>(opt.max_candidates_per_iteration));
    }

    // Trial-remove each candidate, keep the single best removal. A trial
    // re-times only the removal's fanout cone, reads the delay, and rolls
    // the tracker back to the timing before the removal.
    std::size_t best = static_cast<std::size_t>(-1);
    double best_delay = cur;
    for (const auto& [slack, f] : scored) {
      // A deadline can die mid-iteration; trials are remove+re-apply
      // pairs, so breaking between them keeps the netlist consistent.
      if (budget_exhausted(opt.budget)) {
        truncated = true;
        break;
      }
      TELEM_COUNT("heur.trials", 1);
      const auto ref = e.site_ref(f);
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
      // The tracker holds the pre-trial timing again. The re-apply
      // appends its pins to fanout lists, which can move a load in its
      // last bits, so re-time from the seeds of both sides of the edit:
      // between them they name every gate whose delay or fanins can
      // differ from the pre-trial netlist. Only a gate whose delay or
      // inputs really changed passes a change on.
      e.touched_gates(ref.loc, ref.site, touched);
      timing_seeds(nl, touched, seeds);
      tracker.update(seeds);
      if (d < best_delay - 1e-12) {
        best = f;
        best_delay = d;
      }
    }
    if (truncated) break;

    if (best != static_cast<std::size_t>(-1)) {
      TELEM_COUNT("heur.greedy_removals", 1);
      remove_site(e.site_ref(best));
      kicks = 0;  // greedy progress: the escape budget starts over
      continue;
    }

    // No single removal improves the delay: remove a random applied
    // modification (the paper's randomized escape).
    if (++kicks > opt.max_random_kicks) break;
    TELEM_COUNT("heur.random_kicks", 1);
    ++total_kicks;
    max_streak = std::max(max_streak, static_cast<std::size_t>(kicks));
    applied.clear();
    for (std::size_t f = 0; f < e.num_sites(); ++f) {
      const auto ref = e.site_ref(f);
      if (e.applied_option(ref.loc, ref.site) != 0) applied.push_back(f);
    }
    if (applied.empty()) break;
    remove_site(e.site_ref(
        applied[static_cast<std::size_t>(rng.next_below(applied.size()))]));
  }

  ReactiveRun run;
  run.code = e.current_code();
  run.sites_kept = e.num_applied();
  run.bits_kept = applied_bits(e);
  run.delay = cur;
  run.met_budget = cur <= budget;
  run.truncated = truncated;
  run.random_kicks = total_kicks;
  run.max_consecutive_kicks = max_streak;
  return run;
}

}  // namespace

HeuristicOutcome reactive_reduce(FingerprintEmbedder& embedder,
                                 const Baseline& baseline,
                                 const StaticTimingAnalyzer& sta,
                                 const PowerAnalyzer& power,
                                 const ReactiveOptions& options) {
  TELEM_SPAN("reactive_reduce");
  const double budget =
      baseline.delay * (1.0 + options.max_delay_overhead) + 1e-12;
  std::size_t evals = 0;
  ReactiveRun best;
  bool have_best = false;
  bool truncated = false;
  std::size_t total_kicks = 0;
  std::size_t max_streak = 0;
  for (int r = 0; r < std::max(1, options.restarts); ++r) {
    if (r > 0 && budget_exhausted(options.budget)) {
      truncated = true;
      break;
    }
    TELEM_COUNT("heur.restarts", 1);
    trace::instant("heur.restart");
    const ReactiveRun run =
        reactive_once(embedder, sta, budget, options,
                      options.seed + static_cast<std::uint64_t>(r), evals);
    truncated = truncated || run.truncated;
    total_kicks += run.random_kicks;
    max_streak = std::max(max_streak, run.max_consecutive_kicks);
    const bool better =
        !have_best ||
        (run.met_budget && !best.met_budget) ||
        (run.met_budget == best.met_budget &&
         run.bits_kept > best.bits_kept) ||
        (run.met_budget == best.met_budget &&
         run.bits_kept == best.bits_kept && run.delay < best.delay);
    if (better) {
      best = run;
      have_best = true;
    }
    if (run.truncated) break;
  }
  // Anytime guarantee under a resource budget: never hand back an
  // over-constraint configuration just because the budget died mid-run.
  // The blank code is always delay-feasible (zero overhead), so it is the
  // floor checkpoint when no reduced-but-feasible code was reached.
  if (truncated && !best.met_budget) {
    best = ReactiveRun{};
    best.code = blank_code(embedder.locations());
    best.delay = baseline.delay;
    best.met_budget = true;
  }
  embedder.apply_code(best.code);
  HeuristicOutcome out = make_outcome(embedder, baseline, sta, power, evals);
  out.status = truncated ? Status::kExhausted : Status::kOk;
  if (truncated && options.budget != nullptr) {
    out.exhausted_at = options.budget->died_in();
  }
  out.random_kicks = total_kicks;
  out.max_consecutive_kicks = max_streak;
  TELEM_COUNT("heur.sta_evaluations", static_cast<std::int64_t>(evals));
  if (log::enabled(log::Level::kDebug)) {
    log::debug("heur.reactive_reduce.done")
        .field("status", to_string(out.status))
        .field("bits_kept", out.bits_kept)
        .field("sta_evaluations", evals)
        .field("died_in", out.exhausted_at != nullptr ? out.exhausted_at
                                                      : "");
  }
  return out;
}

HeuristicOutcome proactive_insert(FingerprintEmbedder& embedder,
                                  const Baseline& baseline,
                                  const StaticTimingAnalyzer& sta,
                                  const PowerAnalyzer& power,
                                  const ProactiveOptions& options) {
  TELEM_SPAN("proactive_insert");
  const Netlist& nl = embedder.netlist();
  const double budget =
      baseline.delay * (1.0 + options.max_delay_overhead) + 1e-12;
  std::size_t evals = 0;
  embedder.remove_all();

  // Arrival times on the blank circuit estimate how expensive each
  // injected source is.
  ArrivalTracker tracker(nl, sta);
  ++evals;
  std::vector<double> blank_arrival(nl.num_nets());
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    blank_arrival[n] = tracker.arrival(n);
  }
  auto source_arrival = [&](const ModOption& o) {
    double a = blank_arrival[o.source];
    if (o.source2 != kInvalidNet) a = std::max(a, blank_arrival[o.source2]);
    return a;
  };

  // Sites ordered by the arrival of their cheapest option (cheap first).
  std::vector<std::size_t> order(embedder.num_sites());
  for (std::size_t f = 0; f < order.size(); ++f) order[f] = f;
  auto cheapest = [&](std::size_t f) {
    const auto ref = embedder.site_ref(f);
    const InjectionSite& s =
        embedder.locations()[ref.loc].sites[ref.site];
    double best = std::numeric_limits<double>::infinity();
    for (const ModOption& o : s.options) {
      best = std::min(best, source_arrival(o));
    }
    return best;
  };
  std::vector<double> cost(order.size());
  for (std::size_t f : order) cost[f] = cheapest(f);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return cost[a] < cost[b]; });

  bool truncated = false;
  std::vector<GateId> touched;
  std::vector<GateId> seeds;
  for (std::size_t f : order) {
    ODCFP_FAULT_POINT("heuristic.proactive.site");
    // Every kept site was individually verified against the delay
    // constraint, so stopping between sites degrades capacity, never
    // feasibility.
    if (budget_exhausted(options.budget)) {
      truncated = true;
      break;
    }
    const auto ref = embedder.site_ref(f);
    const InjectionSite& s = embedder.locations()[ref.loc].sites[ref.site];
    // Option order: cheapest source first (reroute options usually win).
    std::vector<int> opts(s.options.size());
    for (std::size_t i = 0; i < opts.size(); ++i) {
      opts[i] = static_cast<int>(i) + 1;
    }
    std::sort(opts.begin(), opts.end(), [&](int a, int b) {
      return source_arrival(s.options[static_cast<std::size_t>(a - 1)]) <
             source_arrival(s.options[static_cast<std::size_t>(b - 1)]);
    });
    TELEM_COUNT("heur.iterations", 1);
    for (int opt : opts) {
      TELEM_COUNT("heur.trials", 1);
      embedder.apply(ref.loc, ref.site, opt);
      embedder.touched_gates(ref.loc, ref.site, touched);
      seeds.clear();
      timing_seeds(nl, touched, seeds);
      tracker.update(seeds);
      if (tracker.critical_delay() <= budget) break;
      // Nothing changed since the apply: its seeds are the remove's.
      embedder.remove(ref.loc, ref.site);
      tracker.update(seeds);
    }
  }
  HeuristicOutcome out = make_outcome(embedder, baseline, sta, power, evals);
  out.status = truncated ? Status::kExhausted : Status::kOk;
  if (truncated && options.budget != nullptr) {
    out.exhausted_at = options.budget->died_in();
  }
  TELEM_COUNT("heur.sta_evaluations", static_cast<std::int64_t>(evals));
  return out;
}

}  // namespace odcfp
