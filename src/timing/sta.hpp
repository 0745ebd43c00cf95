// Static timing analysis with a load-dependent linear delay model.
//
// This supplies the paper's "delay" metric (ABC's role in the original
// flow) and the slack information used by the proactive fingerprinting
// heuristic (§III.D: "The delay can be estimated by determining the slack
// on each gate and updating the information every time a modification is
// made").
//
// Model: delay(gate) = intrinsic + load_coeff * load(output net), where
// load = sum of sink input pin capacitances + kWireCapPerFanout per sink
// + kPoLoad per output port. Primary inputs arrive at time 0; arrival
// times propagate in topological order, and required times propagate
// backwards from the latest output. The power model (power/power.hpp)
// reads the same net loads. The constants are fixed: every overhead
// figure is measured under this one model.
// A net's load is O(its fanout): the port term reads the net's own port
// count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace odcfp {

struct TimingReport {
  double critical_delay = 0.0;
  std::vector<double> arrival;     ///< Indexed by NetId.
  std::vector<double> required;    ///< Indexed by NetId.
  std::vector<double> gate_slack;  ///< Indexed by GateId (dead gates: +inf).
  std::vector<GateId> critical_path;  ///< PO-side last, PI-side first.
};

class StaticTimingAnalyzer {
 public:
  /// User-provided, so a const analyzer member needs no initializer.
  StaticTimingAnalyzer() {}

  /// Net wiring load per sink pin.
  static constexpr double kWireCapPerFanout = 0.35;
  /// Load presented by an output pad.
  static constexpr double kPoLoad = 2.0;

  /// Capacitive load on a net under the model above.
  static double net_load(const Netlist& nl, NetId net);

  /// Delay through `gate` for its current output load.
  double gate_delay(const Netlist& nl, GateId gate) const;

  /// Full analysis (arrival + required + slack + one critical path).
  TimingReport analyze(const Netlist& nl) const;

  /// Just the critical delay (cheaper: no required times / path).
  double critical_delay(const Netlist& nl) const;
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
/// same sums, same order of additions. The arrival system on a DAG has
/// one fixpoint once the delays are fixed, so the order in which update()
/// re-times gates does not change a bit.
///
/// The tracker takes one topological order when it is built and keeps
/// it. update() re-times pending gates in its rank order, so each gate is
/// re-timed at most once per update; a gate the order does not know (one
/// added since) waits in a plain queue instead, which is still exact.
/// gate_slack() walks the same order backwards, skipping dead gates, and
/// checks it as it goes: when a live gate's fanin driver does not rank
/// below it, or a live gate is missing, it takes a new order. Removing
/// gates and re-adding them where they were (the netlist reuses a
/// removed gate's id, last removed first) never needs one.
///
/// checkpoint() and rollback() make a trial free to undo: between them,
/// every stored delay and arrival that update() overwrites is logged, and
/// rollback() restores them newest first. The tracker then holds exactly
/// the timing it held at checkpoint(); the caller restores the netlist to
/// match and updates with every gate whose delay or fanins can differ
/// from the checkpointed netlist.
///
/// Once its buffers have grown, update(), rollback() and gate_slack()
/// allocate nothing, except when gate_slack() takes a new order.
class ArrivalTracker {
 public:
  ArrivalTracker(const Netlist& nl, const StaticTimingAnalyzer& sta);

  /// Takes a new topological order and recomputes every stored delay
  /// and arrival (also resizes after growth). Drops a checkpoint.
  void full_recompute();

  /// Recomputes after a structural edit. `seeds` must contain every gate
  /// whose delay or fanin set may have changed — for a fingerprint
  /// modification: the touched gates plus the drivers of their fanins
  /// (their output loads changed); fingerprint/heuristics.hpp's
  /// timing_seeds() builds exactly that set. Only the seeds'
  /// delays are recomputed, so a missing seed leaves a stale stored delay
  /// that later updates and gate_slack() keep reading. Dead gates and
  /// repeats in `seeds` are ignored.
  void update(std::span<const GateId> seeds);

  /// Starts logging what update() overwrites (a new checkpoint replaces
  /// an open one).
  void checkpoint();

  /// Restores every delay and arrival logged since checkpoint(), newest
  /// first, and stops logging. Requires an open checkpoint.
  void rollback();

  /// Current critical delay (max arrival over output ports).
  double critical_delay() const;

  double arrival(NetId net) const;

  /// Stored delay of a live gate, as of its last re-timing.
  double delay(GateId gate) const;

  /// Slack of every gate against the current critical delay, indexed by
  /// GateId (dead gates: +inf); equal to analyze().gate_slack. The
  /// vector is the tracker's own, valid until the next call.
  const std::vector<double>& gate_slack();

  /// Topological orders taken so far: one at construction, one per
  /// full_recompute(), and one per failed order check in gate_slack().
  std::size_t orders_taken() const { return orders_taken_; }

 private:
  /// A stored value update() overwrote while a checkpoint was open.
  struct Undo {
    bool is_delay;
    std::uint32_t index;  ///< GateId for a delay, NetId for an arrival.
    double value;
  };

  void take_order();
  void set_delay(GateId g, double value);
  void set_arrival(NetId n, double value);
  void enqueue(GateId g);
  /// Pops the lowest-ranked pending gate; false when none is pending.
  bool pop_ranked(GateId* g);
  void recompute_gate(GateId g, const Gate& gt);

  const Netlist* nl_;
  const StaticTimingAnalyzer* sta_;
  std::vector<double> arrival_;   // by NetId
  std::vector<double> delay_;     // by GateId, current for live gates
  std::vector<GateId> order_;     // topological order taken last
  std::vector<std::uint32_t> rank_;  // by GateId: position in order_
  /// Pending ranks: a bitmap of pending_words_ words over ranks, then a
  /// summary with one bit per nonzero word; no summary word below
  /// pending_low_ is nonzero.
  std::vector<std::uint64_t> pending_;
  std::size_t pending_words_ = 0;
  std::size_t pending_low_ = 0;
  std::vector<GateId> unranked_;  // pending gates without a rank, FIFO
  std::vector<std::uint8_t> queued_;  // by GateId: pending in this update
  std::vector<Undo> log_;
  bool logging_ = false;
  std::vector<double> required_;  // by NetId, gate_slack()'s buffer
  std::vector<double> slack_;     // by GateId, what gate_slack() returns
  std::size_t orders_taken_ = 0;
};

}  // namespace odcfp
