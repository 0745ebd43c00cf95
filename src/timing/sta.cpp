#include "timing/sta.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>

#include "common/check.hpp"

namespace odcfp {

namespace {

/// Arrival time at the primary inputs.
constexpr double kPiArrival = 0.0;

/// Latest arrival over the fanins of `gt`, never earlier than the PI
/// arrival.
double input_arrival(const Gate& gt, const std::vector<double>& arrival) {
  double at = kPiArrival;
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
  delay.assign(nl.num_gates(), 0);
  arrival.assign(nl.num_nets(), kPiArrival);
  for (GateId g : order) {
    const Gate& gt = nl.gate(g);
    delay[g] = sta.gate_delay(nl, g);
    arrival[gt.output] = input_arrival(gt, arrival) + delay[g];
  }
}

/// Rank of a gate missing from a tracker's order.
constexpr std::uint32_t kNoRank = ~std::uint32_t{0};

/// Backward pass: required times from the latest output back through a
/// topological `order`, then each gate's slack (dead gates: +inf; dead
/// gates in `order` are skipped). Every required time is a min over the
/// same differences in any topological order, so the result depends only
/// on `arrival` and `delay`. Given `rank` (each gate's position in
/// `order`, kNoRank when absent), the pass also checks that `order` is
/// topological for the live gates: it returns false, with `required` and
/// `gate_slack` unspecified, when a live gate's fanin driver does not
/// rank below it or a live gate is not in `order`.
bool required_and_slack(const Netlist& nl, std::span<const GateId> order,
                        std::span<const std::uint32_t> rank,
                        const std::vector<double>& arrival,
                        const std::vector<double>& delay,
                        double critical_delay, std::vector<double>& required,
                        std::vector<double>& gate_slack) {
  const double inf = std::numeric_limits<double>::infinity();
  const bool check = !rank.empty();
  required.assign(nl.num_nets(), inf);
  for (const OutputPort& p : nl.outputs()) {
    required[p.net] = std::min(required[p.net], critical_delay);
  }
  std::size_t live = 0;
  for (std::size_t r = order.size(); r-- > 0;) {
    const GateId g = order[r];
    const Gate& gt = nl.gate(g);
    if (gt.is_dead()) continue;
    ++live;
    const double in_required = required[gt.output] - delay[g];
    for (NetId in : gt.fanins) {
      if (check) {
        const GateId d = nl.net(in).driver;
        if (d != kInvalidGate && (d >= rank.size() || rank[d] >= r)) {
          return false;
        }
      }
      required[in] = std::min(required[in], in_required);
    }
  }
  if (check && live != nl.num_live_gates()) return false;
  gate_slack.assign(nl.num_gates(), inf);
  for (GateId g : order) {
    if (nl.gate(g).is_dead()) continue;
    const NetId out = nl.gate(g).output;
    gate_slack[g] = required[out] - arrival[out];
  }
  return true;
}

}  // namespace

double StaticTimingAnalyzer::net_load(const Netlist& nl, NetId net) {
  const Net& n = nl.net(net);
  double load = 0;
  for (const FanoutRef& ref : n.fanouts) {
    load += nl.cell_of(ref.gate).input_cap;
    load += kWireCapPerFanout;
  }
  for (std::uint32_t p = 0; p < n.num_output_ports; ++p) {
    load += kPoLoad;
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
  required_and_slack(nl, order, {}, rep.arrival, delay, rep.critical_delay,
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

void ArrivalTracker::take_order() {
  order_ = nl_->topo_order_fast();
  rank_.assign(nl_->num_gates(), kNoRank);
  for (std::size_t r = 0; r < order_.size(); ++r) {
    rank_[order_[r]] = static_cast<std::uint32_t>(r);
  }
  pending_words_ = (order_.size() + 63) / 64;
  pending_.assign(pending_words_ + (pending_words_ + 63) / 64, 0);
  pending_low_ = pending_.size() - pending_words_;
  ++orders_taken_;
}

void ArrivalTracker::full_recompute() {
  take_order();
  time_forward(*nl_, *sta_, order_, delay_, arrival_);
  queued_.assign(nl_->num_gates(), 0);
  log_.clear();
  logging_ = false;
}

void ArrivalTracker::checkpoint() {
  log_.clear();
  logging_ = true;
}

void ArrivalTracker::rollback() {
  ODCFP_CHECK_MSG(logging_, "rollback without a checkpoint");
  for (auto it = log_.rbegin(); it != log_.rend(); ++it) {
    (it->is_delay ? delay_ : arrival_)[it->index] = it->value;
  }
  log_.clear();
  logging_ = false;
}

void ArrivalTracker::set_delay(GateId g, double value) {
  if (logging_) log_.push_back({true, g, delay_[g]});
  delay_[g] = value;
}

void ArrivalTracker::set_arrival(NetId n, double value) {
  if (logging_) log_.push_back({false, n, arrival_[n]});
  arrival_[n] = value;
}

void ArrivalTracker::enqueue(GateId g) {
  if (queued_[g]) return;
  queued_[g] = 1;
  const std::uint32_t r = g < rank_.size() ? rank_[g] : kNoRank;
  if (r == kNoRank) {
    unranked_.push_back(g);
    return;
  }
  const std::size_t w = r >> 6;
  pending_[w] |= std::uint64_t{1} << (r & 63);
  pending_[pending_words_ + (w >> 6)] |= std::uint64_t{1} << (w & 63);
  pending_low_ = std::min(pending_low_, w >> 6);
}

bool ArrivalTracker::pop_ranked(GateId* g) {
  std::uint64_t* const summary = pending_.data() + pending_words_;
  const std::size_t summary_words = pending_.size() - pending_words_;
  while (pending_low_ < summary_words && summary[pending_low_] == 0) {
    ++pending_low_;
  }
  if (pending_low_ == summary_words) return false;
  std::uint64_t& sum = summary[pending_low_];
  const std::size_t w = (pending_low_ << 6) +
                        static_cast<std::size_t>(__builtin_ctzll(sum));
  const std::size_t r =
      (w << 6) + static_cast<std::size_t>(__builtin_ctzll(pending_[w]));
  pending_[w] &= pending_[w] - 1;
  if (pending_[w] == 0) sum &= sum - 1;
  *g = order_[r];
  return true;
}

void ArrivalTracker::recompute_gate(GateId g, const Gate& gt) {
  const double new_arrival = input_arrival(gt, arrival_) + delay_[g];
  if (new_arrival != arrival_[gt.output]) {
    set_arrival(gt.output, new_arrival);
    for (const FanoutRef& ref : nl_->net(gt.output).fanouts) {
      enqueue(ref.gate);
    }
  }
}

void ArrivalTracker::update(std::span<const GateId> seeds) {
  // Structures may have grown (new nets/gates) since the last pass; a new
  // gate is always a seed, so its delay is filled below.
  if (arrival_.size() < nl_->num_nets()) {
    arrival_.resize(nl_->num_nets(), kPiArrival);
  }
  if (queued_.size() < nl_->num_gates()) {
    queued_.resize(nl_->num_gates(), 0);
    delay_.resize(nl_->num_gates(), 0);
  }
  // Only a seed's delay can have changed; every other gate keeps the
  // delay stored when it was last timed.
  for (GateId g : seeds) {
    if (g < nl_->num_gates() && !nl_->gate(g).is_dead() && !queued_[g]) {
      set_delay(g, sta_->gate_delay(*nl_, g));
      enqueue(g);
    }
  }
  // Ranked gates pop lowest rank first: every driver that can still
  // change a gate's inputs ranks below it, so no gate is re-timed twice.
  // Unranked gates wait in FIFO order until no ranked gate is pending;
  // one re-timed late is re-timed again, which the unique fixpoint
  // allows.
  std::size_t head = 0;
  for (;;) {
    GateId g;
    if (!pop_ranked(&g)) {
      if (head == unranked_.size()) break;
      g = unranked_[head++];
    }
    queued_[g] = 0;
    const Gate& gt = nl_->gate(g);
    if (!gt.is_dead()) recompute_gate(g, gt);
  }
  unranked_.clear();
}

double ArrivalTracker::critical_delay() const {
  return latest_output(*nl_, arrival_);
}

double ArrivalTracker::arrival(NetId net) const {
  ODCFP_CHECK(net < arrival_.size());
  return arrival_[net];
}

double ArrivalTracker::delay(GateId gate) const {
  ODCFP_CHECK(gate < delay_.size());
  return delay_[gate];
}

const std::vector<double>& ArrivalTracker::gate_slack() {
  const double critical = critical_delay();
  if (!required_and_slack(*nl_, order_, rank_, arrival_, delay_, critical,
                          required_, slack_)) {
    take_order();
    const bool fresh_order_holds = required_and_slack(
        *nl_, order_, rank_, arrival_, delay_, critical, required_, slack_);
    ODCFP_CHECK(fresh_order_holds);
  }
  return slack_;
}

}  // namespace odcfp
