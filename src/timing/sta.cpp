#include "timing/sta.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace odcfp {

namespace {

/// Latest arrival over the fanins of `gt`, never earlier than the PI
/// arrival.
double input_arrival(const Gate& gt, const std::vector<double>& arrival,
                     double pi_arrival) {
  double at = pi_arrival;
  for (NetId in : gt.fanins) at = std::max(at, arrival[in]);
  return at;
}

/// Max arrival over the output ports (0 without ports).
double latest_output(const Netlist& nl, const std::vector<double>& arrival) {
  double worst = 0;
  for (const OutputPort& p : nl.outputs()) {
    worst = std::max(worst, arrival[p.net]);
  }
  return worst;
}

/// Forward pass over a topological `order`: each gate's delay (by GateId)
/// and the arrival on its output net (by NetId).
void time_forward(const Netlist& nl, const StaticTimingAnalyzer& sta,
                  const std::vector<GateId>& order,
                  std::vector<double>& delay, std::vector<double>& arrival) {
  const double pi_arrival = sta.options().pi_arrival;
  delay.assign(nl.num_gates(), 0);
  arrival.assign(nl.num_nets(), pi_arrival);
  for (GateId g : order) {
    const Gate& gt = nl.gate(g);
    delay[g] = sta.gate_delay(nl, g);
    arrival[gt.output] = input_arrival(gt, arrival, pi_arrival) + delay[g];
  }
}

/// Backward pass: required times from the latest output back through a
/// topological `order`, then each gate's slack (dead gates: +inf). Every
/// required time is a min over the same differences in any topological
/// order, so the result depends only on `arrival` and `delay`.
void required_and_slack(const Netlist& nl, const std::vector<GateId>& order,
                        const std::vector<double>& arrival,
                        const std::vector<double>& delay,
                        double critical_delay, std::vector<double>& required,
                        std::vector<double>& gate_slack) {
  const double inf = std::numeric_limits<double>::infinity();
  required.assign(nl.num_nets(), inf);
  for (const OutputPort& p : nl.outputs()) {
    required[p.net] = std::min(required[p.net], critical_delay);
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const Gate& gt = nl.gate(*it);
    const double in_required = required[gt.output] - delay[*it];
    for (NetId in : gt.fanins) {
      required[in] = std::min(required[in], in_required);
    }
  }
  gate_slack.assign(nl.num_gates(), inf);
  for (GateId g : order) {
    const NetId out = nl.gate(g).output;
    gate_slack[g] = required[out] - arrival[out];
  }
}

}  // namespace

double StaticTimingAnalyzer::net_load(const Netlist& nl, NetId net) const {
  const Net& n = nl.net(net);
  double load = 0;
  for (const FanoutRef& ref : n.fanouts) {
    load += nl.cell_of(ref.gate).input_cap;
    load += options_.wire_cap_per_fanout;
  }
  for (std::uint32_t p = 0; p < n.num_output_ports; ++p) {
    load += options_.po_load;
  }
  return load;
}

double StaticTimingAnalyzer::gate_delay(const Netlist& nl,
                                        GateId gate) const {
  const Cell& c = nl.cell_of(gate);
  return c.intrinsic_delay + c.load_coeff * net_load(nl, nl.gate(gate).output);
}

double StaticTimingAnalyzer::critical_delay(const Netlist& nl) const {
  std::vector<double> delay;
  std::vector<double> arrival;
  time_forward(nl, *this, nl.topo_order_fast(), delay, arrival);
  return latest_output(nl, arrival);
}

TimingReport StaticTimingAnalyzer::analyze(const Netlist& nl) const {
  TimingReport rep;
  const std::vector<GateId> order = nl.topo_order_fast();
  std::vector<double> delay;
  time_forward(nl, *this, order, delay, rep.arrival);
  rep.critical_delay = latest_output(nl, rep.arrival);
  required_and_slack(nl, order, rep.arrival, delay, rep.critical_delay,
                     rep.required, rep.gate_slack);

  // One critical path: walk back from the latest output.
  NetId worst_net = kInvalidNet;
  for (const OutputPort& p : nl.outputs()) {
    if (worst_net == kInvalidNet ||
        rep.arrival[p.net] > rep.arrival[worst_net]) {
      worst_net = p.net;
    }
  }
  std::vector<GateId> path;
  while (worst_net != kInvalidNet) {
    const GateId d = nl.net(worst_net).driver;
    if (d == kInvalidGate) break;
    path.push_back(d);
    NetId next = kInvalidNet;
    for (NetId in : nl.gate(d).fanins) {
      if (next == kInvalidNet || rep.arrival[in] > rep.arrival[next]) {
        next = in;
      }
    }
    worst_net = next;
  }
  std::reverse(path.begin(), path.end());
  rep.critical_path = std::move(path);
  return rep;
}

ArrivalTracker::ArrivalTracker(const Netlist& nl,
                               const StaticTimingAnalyzer& sta)
    : nl_(&nl), sta_(&sta) {
  full_recompute();
}

void ArrivalTracker::full_recompute() {
  time_forward(*nl_, *sta_, nl_->topo_order_fast(), delay_, arrival_);
  queued_.assign(nl_->num_gates(), false);
}

void ArrivalTracker::recompute_gate(GateId g, std::vector<GateId>& queue) {
  const Gate& gt = nl_->gate(g);
  const double new_arrival =
      input_arrival(gt, arrival_, sta_->options().pi_arrival) + delay_[g];
  if (new_arrival != arrival_[gt.output]) {
    arrival_[gt.output] = new_arrival;
    for (const FanoutRef& ref : nl_->net(gt.output).fanouts) {
      if (!queued_[ref.gate]) {
        queued_[ref.gate] = true;
        queue.push_back(ref.gate);
      }
    }
  }
}

void ArrivalTracker::update(const std::vector<GateId>& seeds) {
  // Structures may have grown (new nets/gates) since the last pass; a new
  // gate is always a seed, so its delay is filled below.
  if (arrival_.size() < nl_->num_nets()) {
    arrival_.resize(nl_->num_nets(), sta_->options().pi_arrival);
  }
  if (queued_.size() < nl_->num_gates()) {
    queued_.resize(nl_->num_gates(), false);
    delay_.resize(nl_->num_gates(), 0);
  }
  // Only a seed's delay can have changed; every other gate keeps the
  // delay stored when it was last timed.
  std::vector<GateId> queue;
  for (GateId g : seeds) {
    if (g < nl_->num_gates() && !nl_->gate(g).is_dead() && !queued_[g]) {
      queued_[g] = true;
      delay_[g] = sta_->gate_delay(*nl_, g);
      queue.push_back(g);
    }
  }
  // Worklist relaxation; the arrival system on a DAG has a unique
  // fixpoint, and each pop recomputes a gate exactly from its fanins.
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const GateId g = queue[head];
    queued_[g] = false;
    if (nl_->gate(g).is_dead()) continue;
    recompute_gate(g, queue);
  }
}

double ArrivalTracker::critical_delay() const {
  return latest_output(*nl_, arrival_);
}

double ArrivalTracker::arrival(NetId net) const {
  ODCFP_CHECK(net < arrival_.size());
  return arrival_[net];
}

std::vector<double> ArrivalTracker::gate_slack() const {
  std::vector<double> required;
  std::vector<double> slack;
  required_and_slack(*nl_, nl_->topo_order_fast(), arrival_, delay_,
                     critical_delay(), required, slack);
  return slack;
}

}  // namespace odcfp
