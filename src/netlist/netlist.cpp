#include "netlist/netlist.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "common/fault.hpp"

namespace odcfp {

Netlist::Netlist(const CellLibrary* library, std::string name)
    : library_(library), name_(std::move(name)) {
  ODCFP_CHECK(library_ != nullptr);
}

void Netlist::reserve(std::size_t gates, std::size_t nets) {
  gates_.reserve(gates);
  nets_.reserve(nets);
}

NetId Netlist::add_net(const std::string& name, GateId driver, bool is_pi) {
  const NetId id = static_cast<NetId>(nets_.size());
  Net n;
  n.name = name.empty() ? fresh_net_name("n") : name;
  n.driver = driver;
  n.is_pi = is_pi;
  ODCFP_CHECK_MSG(net_by_name_.insert(n.name, id, net_names()) == id,
                  "duplicate net name '" << n.name << "'");
  nets_.push_back(std::move(n));
  return id;
}

NetId Netlist::add_input(const std::string& name) {
  const NetId id = add_net(name, kInvalidGate, /*is_pi=*/true);
  pis_.push_back(id);
  return id;
}

void Netlist::add_output(NetId net, const std::string& port_name) {
  ODCFP_CHECK(net < nets_.size());
  OutputPort p;
  p.net = net;
  p.name = port_name.empty() ? nets_[net].name : port_name;
  const auto index = static_cast<std::uint32_t>(pos_.size());
  ODCFP_CHECK_MSG(port_by_name_.insert(p.name, index, port_names()) == index,
                  "duplicate output port '" << p.name << "'");
  pos_.push_back(std::move(p));
  ++nets_[net].num_output_ports;
}

GateId Netlist::add_gate(CellId cell, std::span<const NetId> fanins,
                         const std::string& gate_name,
                         const std::string& out_net_name) {
  ODCFP_FAULT_POINT("netlist.add_gate");
  const Cell& c = library_->cell(cell);
  ODCFP_CHECK_MSG(static_cast<int>(fanins.size()) == c.num_inputs(),
                  "cell " << c.name << " needs " << c.num_inputs()
                          << " fanins, got " << fanins.size());

  // Reuse a tombstone (and its output net) when one is available.
  GateId id = kInvalidGate;
  while (!free_gates_.empty()) {
    const GateId cand = free_gates_.back();
    free_gates_.pop_back();
    const NetId out = gates_[cand].output;
    if (out != kInvalidNet && nets_[out].fanouts.empty() &&
        nets_[out].driver == kInvalidGate && !nets_[out].is_pi) {
      id = cand;
      break;
    }
  }

  const std::string name =
      gate_name.empty() ? fresh_gate_name("g") : gate_name;
  // `fanins` is copied before gates_ grows: it may view a gate's pins.
  if (id == kInvalidGate) {
    id = static_cast<GateId>(gates_.size());
    Gate g;
    g.cell = cell;
    g.fanins.assign(fanins);
    g.name = name;
    ODCFP_CHECK_MSG(gate_by_name_.insert(g.name, id, gate_names()) == id,
                    "duplicate gate name '" << g.name << "'");
    gates_.push_back(std::move(g));
    gates_[id].output = add_net(out_net_name, id, /*is_pi=*/false);
  } else {
    Gate& g = gates_[id];
    g.cell = cell;
    g.fanins.assign(fanins);
    g.name = name;
    ODCFP_CHECK_MSG(gate_by_name_.insert(g.name, id, gate_names()) == id,
                    "duplicate gate name '" << g.name << "'");
    rename_net(g.output,
               out_net_name.empty() ? fresh_net_name("n") : out_net_name);
    nets_[g.output].driver = id;
  }
  const Gate& g = gates_[id];
  for (int pin = 0; pin < static_cast<int>(g.fanins.size()); ++pin) {
    attach_pin(id, pin, g.fanins[static_cast<std::size_t>(pin)]);
  }
  ++live_gates_;
  return id;
}

GateId Netlist::add_gate_kind(CellKind kind, std::span<const NetId> fanins,
                              const std::string& gate_name) {
  const CellId cell = library_->find_kind(kind, static_cast<int>(fanins.size()));
  ODCFP_CHECK_MSG(cell != kInvalidCell,
                  "library has no " << cell_kind_name(kind) << " with "
                                    << fanins.size() << " inputs");
  return add_gate(cell, fanins, gate_name);
}

void Netlist::attach_pin(GateId gate, int pin, NetId net) {
  ODCFP_CHECK(net < nets_.size());
  nets_[net].fanouts.push_back({gate, static_cast<std::uint8_t>(pin)});
}

void Netlist::detach_pin(GateId gate, int pin) {
  const NetId net = gates_[gate].fanins[static_cast<std::size_t>(pin)];
  auto& fo = nets_[net].fanouts;
  auto it = std::find(fo.begin(), fo.end(),
                      FanoutRef{gate, static_cast<std::uint8_t>(pin)});
  ODCFP_CHECK_MSG(it != fo.end(), "fanout bookkeeping corrupted");
  fo.erase(it);
}

void Netlist::rewire_gate(GateId gate, CellId new_cell,
                          std::span<const NetId> new_fanins) {
  ODCFP_CHECK(gate < gates_.size() && !gates_[gate].is_dead());
  const Cell& c = library_->cell(new_cell);
  ODCFP_CHECK_MSG(static_cast<int>(new_fanins.size()) == c.num_inputs(),
                  "cell " << c.name << " needs " << c.num_inputs()
                          << " fanins, got " << new_fanins.size());
  Gate& g = gates_[gate];
  for (int pin = 0; pin < static_cast<int>(g.fanins.size()); ++pin) {
    detach_pin(gate, pin);
  }
  g.cell = new_cell;
  g.fanins.assign(new_fanins);
  for (int pin = 0; pin < static_cast<int>(g.fanins.size()); ++pin) {
    attach_pin(gate, pin, g.fanins[static_cast<std::size_t>(pin)]);
  }
}

void Netlist::reconnect_pin(GateId gate, int pin, NetId new_net) {
  ODCFP_CHECK(gate < gates_.size() && !gates_[gate].is_dead());
  ODCFP_CHECK(pin >= 0 &&
              pin < static_cast<int>(gates_[gate].fanins.size()));
  detach_pin(gate, pin);
  gates_[gate].fanins[static_cast<std::size_t>(pin)] = new_net;
  attach_pin(gate, pin, new_net);
}

void Netlist::remove_gate(GateId gate) {
  ODCFP_CHECK(gate < gates_.size() && !gates_[gate].is_dead());
  for (int pin = 0; pin < static_cast<int>(gates_[gate].fanins.size()); ++pin) {
    detach_pin(gate, pin);
  }
  gates_[gate].fanins.clear();
  gate_by_name_.erase(gates_[gate].name, gate_names());
  gates_[gate].cell = kInvalidCell;
  if (gates_[gate].output != kInvalidNet) {
    nets_[gates_[gate].output].driver = kInvalidGate;
  }
  free_gates_.push_back(gate);
  --live_gates_;
}

void Netlist::transfer_fanouts(NetId from, NetId to) {
  transfer_fanouts_except(from, to, kInvalidGate);
}

void Netlist::transfer_fanouts_except(NetId from, NetId to,
                                      GateId except_gate) {
  ODCFP_CHECK(from < nets_.size() && to < nets_.size() && from != to);
  // In list order: reconnecting entry i erases it from `from`'s list, so
  // the next entry moves into slot i; skipped entries stay before it.
  for (std::size_t i = 0; i < nets_[from].fanouts.size();) {
    const FanoutRef ref = nets_[from].fanouts[i];
    if (ref.gate == except_gate) {
      ++i;
      continue;
    }
    reconnect_pin(ref.gate, ref.pin, to);
  }
  repoint_output_ports(from, to);
}

void Netlist::repoint_output_ports(NetId from, NetId to) {
  ODCFP_CHECK(from < nets_.size() && to < nets_.size());
  if (nets_[from].num_output_ports == 0) return;
  for (OutputPort& p : pos_) {
    if (p.net == from) p.net = to;
  }
  nets_[to].num_output_ports +=
      std::exchange(nets_[from].num_output_ports, 0);
}

const Cell& Netlist::cell_of(GateId id) const {
  return library_->cell(gate(id).cell);
}

NetId Netlist::find_net(std::string_view name) const {
  return net_by_name_.find(name, net_names());
}

GateId Netlist::find_gate(std::string_view name) const {
  return gate_by_name_.find(name, gate_names());
}

std::uint32_t Netlist::find_output(std::string_view name) const {
  return port_by_name_.find(name, port_names());
}

void Netlist::rename_net(NetId id, const std::string& new_name) {
  ODCFP_CHECK(id < nets_.size());
  ODCFP_CHECK_MSG(find_net(new_name) == kInvalidNet,
                  "duplicate net name '" << new_name << "'");
  net_by_name_.erase(nets_[id].name, net_names());
  nets_[id].name = new_name;
  net_by_name_.insert(nets_[id].name, id, net_names());
}

std::vector<GateId> Netlist::topo_order() const {
  // Kahn's algorithm over gate->gate edges, always taking the smallest
  // ready id, so the order is deterministic regardless of fanout-list
  // order — undoing a modification restores byte-identical
  // serializations. The ready set is a bitmap over gate ids under a
  // summary with one bit per nonzero 64-id word. A pop scans summary
  // words up from the lowest one that can be nonzero, so no pop reads
  // more than n/4096 of them, while a scan of the bitmap itself would go
  // quadratic when ready ids alternate between the two ends.
  const std::size_t words = (gates_.size() + 63) / 64;
  const std::size_t summary_words = (words + 63) / 64;
  std::vector<std::uint64_t> bits(words + summary_words, 0);
  std::uint64_t* const ready = bits.data();
  std::uint64_t* const summary = ready + words;
  std::size_t low = summary_words;  // no summary word below is nonzero
  const auto push = [&](GateId g) {
    const std::size_t w = g >> 6;
    ready[w] |= std::uint64_t{1} << (g & 63);
    summary[w >> 6] |= std::uint64_t{1} << (w & 63);
    low = std::min(low, w >> 6);
  };

  std::vector<std::uint32_t> pending(gates_.size(), 0);
  std::size_t live = 0;
  for (GateId g = 0; g < gates_.size(); ++g) {
    if (gates_[g].is_dead()) continue;
    ++live;
    std::uint32_t deps = 0;
    for (NetId in : gates_[g].fanins) {
      if (nets_[in].driver != kInvalidGate) ++deps;
    }
    pending[g] = deps;
    if (deps == 0) push(g);
  }
  std::vector<GateId> order;
  order.reserve(live);
  for (;;) {
    while (low < summary_words && summary[low] == 0) ++low;
    if (low == summary_words) break;
    const std::size_t w =
        (low << 6) + static_cast<std::size_t>(__builtin_ctzll(summary[low]));
    const auto g = static_cast<GateId>(
        (w << 6) + static_cast<std::size_t>(__builtin_ctzll(ready[w])));
    ready[w] &= ready[w] - 1;
    if (ready[w] == 0) summary[low] &= summary[low] - 1;
    order.push_back(g);
    // A gate reading the same net on several pins must be decremented
    // once per pin; the fanout list has one entry per pin, so this works.
    for (const FanoutRef& ref : nets_[gates_[g].output].fanouts) {
      if (--pending[ref.gate] == 0) push(ref.gate);
    }
  }
  ODCFP_CHECK_MSG(order.size() == live,
                  "netlist contains a combinational cycle");
  return order;
}

std::vector<GateId> Netlist::topo_order_fast() const {
  std::vector<int> pending(gates_.size(), 0);
  std::vector<GateId> order;
  order.reserve(live_gates_);
  std::size_t live = 0;
  for (GateId g = 0; g < gates_.size(); ++g) {
    if (gates_[g].is_dead()) continue;
    ++live;
    int deps = 0;
    for (NetId in : gates_[g].fanins) {
      if (nets_[in].driver != kInvalidGate) ++deps;
    }
    pending[g] = deps;
    if (deps == 0) order.push_back(g);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    const GateId g = order[head];
    for (const FanoutRef& ref : nets_[gates_[g].output].fanouts) {
      if (--pending[ref.gate] == 0) order.push_back(ref.gate);
    }
  }
  ODCFP_CHECK_MSG(order.size() == live,
                  "netlist contains a combinational cycle");
  return order;
}

std::vector<int> Netlist::gate_levels() const {
  std::vector<int> level(gates_.size(), 0);
  for (GateId g : topo_order()) {
    int lvl = 0;
    for (NetId in : gates_[g].fanins) {
      const GateId d = nets_[in].driver;
      if (d != kInvalidGate) lvl = std::max(lvl, level[d]);
    }
    level[g] = lvl + 1;
  }
  return level;
}

int Netlist::depth() const {
  const std::vector<int> level = gate_levels();
  int d = 0;
  for (GateId g = 0; g < gates_.size(); ++g) {
    if (!gates_[g].is_dead()) d = std::max(d, level[g]);
  }
  return d;
}

double Netlist::total_area() const {
  double a = 0;
  for (const Gate& g : gates_) {
    if (!g.is_dead()) a += library_->cell(g.cell).area;
  }
  return a;
}

bool Netlist::has_single_fanout(NetId net) const {
  ODCFP_CHECK(net < nets_.size());
  return nets_[net].fanouts.size() == 1 && nets_[net].num_output_ports == 0;
}

void Netlist::validate(bool allow_dangling) const {
  for (GateId g = 0; g < gates_.size(); ++g) {
    const Gate& gt = gates_[g];
    if (gt.is_dead()) continue;
    const Cell& c = library_->cell(gt.cell);
    ODCFP_CHECK_MSG(static_cast<int>(gt.fanins.size()) == c.num_inputs(),
                    "gate " << gt.name << " arity mismatch");
    ODCFP_CHECK_MSG(gt.output < nets_.size() &&
                        nets_[gt.output].driver == g,
                    "gate " << gt.name << " output driver mismatch");
    for (int pin = 0; pin < static_cast<int>(gt.fanins.size()); ++pin) {
      const NetId in = gt.fanins[static_cast<std::size_t>(pin)];
      ODCFP_CHECK_MSG(in < nets_.size(), "gate " << gt.name << " bad fanin");
      const auto& fo = nets_[in].fanouts;
      ODCFP_CHECK_MSG(
          std::count(fo.begin(), fo.end(),
                     FanoutRef{g, static_cast<std::uint8_t>(pin)}) == 1,
          "net " << nets_[in].name << " fanout list out of sync with gate "
                 << gt.name << " pin " << pin);
    }
  }
  for (NetId n = 0; n < nets_.size(); ++n) {
    const Net& nt = nets_[n];
    if (nt.is_pi) {
      ODCFP_CHECK_MSG(nt.driver == kInvalidGate,
                      "PI net " << nt.name << " has a driver");
    }
    for (const FanoutRef& ref : nt.fanouts) {
      ODCFP_CHECK_MSG(ref.gate < gates_.size() &&
                          !gates_[ref.gate].is_dead() &&
                          ref.pin < gates_[ref.gate].fanins.size() &&
                          gates_[ref.gate].fanins[ref.pin] == n,
                      "net " << nt.name << " has a stale fanout entry");
    }
    if (!allow_dangling && !nt.is_pi && nt.driver == kInvalidGate &&
        !nt.fanouts.empty()) {
      ODCFP_CHECK_MSG(false, "net " << nt.name
                                    << " has fanouts but no driver");
    }
  }
  std::vector<std::uint32_t> ports(nets_.size(), 0);
  for (const OutputPort& p : pos_) {
    ODCFP_CHECK_MSG(p.net < nets_.size(), "output port " << p.name
                                                         << " bad net");
    ++ports[p.net];
  }
  for (NetId n = 0; n < nets_.size(); ++n) {
    ODCFP_CHECK_MSG(nets_[n].num_output_ports == ports[n],
                    "net " << nets_[n].name << " counts "
                           << nets_[n].num_output_ports
                           << " output ports, but " << ports[n]
                           << " reference it");
  }
  topo_order();  // throws on cycles
}

std::size_t Netlist::sweep_dangling() {
  std::size_t swept = 0;
  for (;;) {
    bool changed = false;
    for (GateId g = 0; g < gates_.size(); ++g) {
      if (gates_[g].is_dead()) continue;
      const Net& out = nets_[gates_[g].output];
      if (out.fanouts.empty() && out.num_output_ports == 0) {
        remove_gate(g);
        ++swept;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return swept;
}

std::vector<GateId> Netlist::compact() {
  free_gates_.clear();  // ids are about to be remapped
  std::vector<GateId> remap(gates_.size(), kInvalidGate);
  std::vector<Gate> packed;
  packed.reserve(live_gates_);
  for (GateId g = 0; g < gates_.size(); ++g) {
    if (gates_[g].is_dead()) continue;
    remap[g] = static_cast<GateId>(packed.size());
    packed.push_back(std::move(gates_[g]));
  }
  gates_ = std::move(packed);
  gate_by_name_.clear();
  for (GateId g = 0; g < gates_.size(); ++g) {
    gate_by_name_.insert(gates_[g].name, g, gate_names());
  }
  for (Net& n : nets_) {
    if (n.driver != kInvalidGate) n.driver = remap[n.driver];
    for (FanoutRef& ref : n.fanouts) ref.gate = remap[ref.gate];
  }
  return remap;
}

std::string Netlist::fresh_net_name(const std::string& prefix) {
  for (;;) {
    std::string candidate = prefix + std::to_string(name_counter_++);
    if (find_net(candidate) == kInvalidNet) return candidate;
  }
}

std::string Netlist::fresh_gate_name(const std::string& prefix) {
  for (;;) {
    std::string candidate = prefix + std::to_string(name_counter_++);
    if (find_gate(candidate) == kInvalidGate) return candidate;
  }
}

std::string structural_signature(const Netlist& nl) {
  std::vector<std::string> lines;
  lines.reserve(nl.num_live_gates() + nl.inputs().size() +
                nl.outputs().size());
  for (NetId pi : nl.inputs()) {
    lines.push_back("pi " + nl.net(pi).name);
  }
  for (const OutputPort& po : nl.outputs()) {
    lines.push_back("po " + po.name + " = " + nl.net(po.net).name);
  }
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const Gate& gt = nl.gate(g);
    if (gt.is_dead()) continue;
    std::string line = "gate " + gt.name + " " +
                       nl.library().cell(gt.cell).name + " (";
    for (std::size_t i = 0; i < gt.fanins.size(); ++i) {
      if (i > 0) line += ",";
      line += nl.net(gt.fanins[i]).name;
    }
    line += ") -> " + nl.net(gt.output).name;
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::string sig;
  for (const std::string& l : lines) {
    sig += l;
    sig += '\n';
  }
  return sig;
}

std::vector<std::pair<CellKind, std::size_t>> kind_histogram(
    const Netlist& nl) {
  std::unordered_map<int, std::size_t> counts;
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    if (nl.gate(g).is_dead()) continue;
    counts[static_cast<int>(nl.cell_of(g).kind)]++;
  }
  std::vector<std::pair<CellKind, std::size_t>> out;
  out.reserve(counts.size());
  for (const auto& [k, c] : counts) {
    out.emplace_back(static_cast<CellKind>(k), c);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return static_cast<int>(a.first) < static_cast<int>(b.first);
  });
  return out;
}

}  // namespace odcfp
