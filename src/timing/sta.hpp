// Static timing analysis with a load-dependent linear delay model.
//
// This supplies the paper's "delay" metric (ABC's role in the original
// flow) and the slack information used by the proactive fingerprinting
// heuristic (§III.D: "The delay can be estimated by determining the slack
// on each gate and updating the information every time a modification is
// made").
//
// Model: delay(gate) = intrinsic + load_coeff * load(output net), where
// load = sum of sink input pin capacitances + wire_cap_per_fanout per sink
// + po_load for output ports. Arrival times propagate in topological
// order; required times propagate backwards from the latest output.
// A net's load is O(its fanout): the port term reads the net's own port
// count.
#pragma once

#include <vector>

#include "netlist/netlist.hpp"

namespace odcfp {

struct TimingOptions {
  double wire_cap_per_fanout = 0.35;  ///< Net wiring load per sink pin.
  double po_load = 2.0;               ///< Load presented by an output pad.
  double pi_arrival = 0.0;            ///< Arrival time at primary inputs.
};

struct TimingReport {
  double critical_delay = 0.0;
  std::vector<double> arrival;     ///< Indexed by NetId.
  std::vector<double> required;    ///< Indexed by NetId.
  std::vector<double> gate_slack;  ///< Indexed by GateId (dead gates: +inf).
  std::vector<GateId> critical_path;  ///< PO-side last, PI-side first.
};

class StaticTimingAnalyzer {
 public:
  explicit StaticTimingAnalyzer(TimingOptions options = {})
      : options_(options) {}

  const TimingOptions& options() const { return options_; }

  /// Capacitive load on a net under the model above.
  double net_load(const Netlist& nl, NetId net) const;

  /// Delay through `gate` for its current output load.
  double gate_delay(const Netlist& nl, GateId gate) const;

  /// Full analysis (arrival + required + slack + one critical path).
  TimingReport analyze(const Netlist& nl) const;

  /// Just the critical delay (cheaper: no required times / path).
  double critical_delay(const Netlist& nl) const;

 private:
  TimingOptions options_;
};

/// Incremental arrival-time maintenance under local netlist edits.
///
/// The paper's §III.D: "The delay can be estimated by determining the
/// slack on each gate and updating the information every time a
/// modification is made, but this can be time consuming". This tracker
/// makes it cheap: after a local change, call update() with the affected
/// gates; arrivals are recomputed event-driven through the fanout cone
/// (stopping as soon as values stop changing), instead of re-running the
/// full STA. It stores each gate's delay, so update() re-derives only the
/// seeds' delays, and gate_slack() runs analyze()'s own required-time and
/// slack pass over the tracked arrivals and stored delays. The overhead
/// heuristics use it for their trial evaluations and candidate scoring.
///
/// While every update() names its seeds as below, arrivals, critical
/// delay and slacks equal a fresh analyze() bit for bit: same delays,
/// same sums, same order of additions.
class ArrivalTracker {
 public:
  ArrivalTracker(const Netlist& nl, const StaticTimingAnalyzer& sta);

  /// Recomputes everything from scratch, stored delays included (also
  /// resizes after growth).
  void full_recompute();

  /// Recomputes after a structural edit. `seeds` must contain every gate
  /// whose delay or fanin set may have changed — for a fingerprint
  /// modification: the touched gates plus the drivers of their fanins
  /// (their output loads changed); fingerprint/heuristics.hpp's
  /// timing_seeds() builds exactly that set. Only the seeds'
  /// delays are recomputed, so a missing seed leaves a stale stored delay
  /// that later updates and gate_slack() keep reading. Dead gates in
  /// `seeds` are ignored.
  void update(const std::vector<GateId>& seeds);

  /// Current critical delay (max arrival over output ports).
  double critical_delay() const;

  double arrival(NetId net) const;

  /// Slack of every gate against the current critical delay, indexed by
  /// GateId (dead gates: +inf); equal to analyze().gate_slack.
  std::vector<double> gate_slack() const;

 private:
  void recompute_gate(GateId g, std::vector<GateId>& queue);

  const Netlist* nl_;
  const StaticTimingAnalyzer* sta_;
  std::vector<double> arrival_;   // by NetId
  std::vector<double> delay_;     // by GateId, current for live gates
  std::vector<bool> queued_;      // by GateId, scratch
};

}  // namespace odcfp
