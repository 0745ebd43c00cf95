#include "synth/sop_network.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace odcfp {

SignalId SopNetwork::signal(const std::string& name) {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) return it->second;
  const SignalId id = static_cast<SignalId>(names_.size());
  names_.push_back(name);
  is_input_.push_back(false);
  by_name_.emplace(name, id);
  return id;
}

SignalId SopNetwork::find_signal(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidSignal : it->second;
}

const std::string& SopNetwork::signal_name(SignalId id) const {
  ODCFP_CHECK(id < names_.size());
  return names_[id];
}

void SopNetwork::mark_input(SignalId id) {
  ODCFP_CHECK(id < names_.size());
  if (!is_input_[id]) {
    is_input_[id] = true;
    inputs_.push_back(id);
  }
}

void SopNetwork::mark_output(SignalId id) {
  ODCFP_CHECK(id < names_.size());
  outputs_.push_back(id);
}

bool SopNetwork::is_input(SignalId id) const {
  ODCFP_CHECK(id < names_.size());
  return is_input_[id];
}

void SopNetwork::set_node(SignalId id, SopNode node) {
  ODCFP_CHECK(id < names_.size());
  ODCFP_CHECK_MSG(!is_input_[id],
                  "signal '" << names_[id] << "' is a PI and a node");
  ODCFP_CHECK_MSG(nodes_.find(id) == nodes_.end(),
                  "signal '" << names_[id] << "' defined twice");
  for (const SopCube& c : node.cubes) {
    ODCFP_CHECK_MSG(c.lits.size() == node.fanins.size(),
                    "cube arity mismatch on '" << names_[id] << "'");
  }
  nodes_.emplace(id, std::move(node));
}

const SopNode& SopNetwork::node(SignalId id) const {
  auto it = nodes_.find(id);
  ODCFP_CHECK_MSG(it != nodes_.end(),
                  "signal '" << names_[id] << "' has no defining node");
  return it->second;
}

std::vector<SignalId> SopNetwork::topo_order() const {
  enum class Mark : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<Mark> mark(names_.size(), Mark::kWhite);
  std::vector<SignalId> order;
  // Iterative DFS (post-order) from the outputs.
  struct Frame {
    SignalId sig;
    std::size_t next_child;
  };
  for (SignalId out : outputs_) {
    if (mark[out] != Mark::kWhite) continue;
    std::vector<Frame> stack{{out, 0}};
    mark[out] = Mark::kGray;
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (is_input_[f.sig]) {
        mark[f.sig] = Mark::kBlack;
        stack.pop_back();
        continue;
      }
      auto it = nodes_.find(f.sig);
      ODCFP_CHECK_MSG(it != nodes_.end(), "undefined signal '"
                                              << names_[f.sig] << "'");
      const SopNode& nd = it->second;
      if (f.next_child < nd.fanins.size()) {
        const SignalId child = nd.fanins[f.next_child++];
        if (mark[child] == Mark::kWhite) {
          mark[child] = Mark::kGray;
          stack.push_back({child, 0});
        } else {
          ODCFP_CHECK_MSG(mark[child] != Mark::kGray ||
                              is_input_[child],
                          "combinational cycle through '"
                              << names_[child] << "'");
        }
      } else {
        mark[f.sig] = Mark::kBlack;
        order.push_back(f.sig);
        stack.pop_back();
      }
    }
  }
  return order;
}

std::vector<std::uint64_t> SopNetwork::evaluate(
    const std::vector<std::uint64_t>& input_words) const {
  ODCFP_CHECK(input_words.size() == inputs_.size());
  std::vector<std::uint64_t> value(names_.size(), 0);
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    value[inputs_[i]] = input_words[i];
  }
  for (SignalId sig : topo_order()) {
    const SopNode& nd = node(sig);
    std::uint64_t acc = 0;
    for (const SopCube& cube : nd.cubes) {
      std::uint64_t term = ~0ull;
      for (std::size_t i = 0; i < nd.fanins.size(); ++i) {
        const std::uint64_t w = value[nd.fanins[i]];
        switch (cube.lits[i]) {
          case CubeLit::kPos: term &= w; break;
          case CubeLit::kNeg: term &= ~w; break;
          case CubeLit::kDontCare: break;
        }
      }
      acc |= term;
    }
    value[sig] = nd.complemented ? ~acc : acc;
  }
  std::vector<std::uint64_t> out;
  out.reserve(outputs_.size());
  for (SignalId sig : outputs_) out.push_back(value[sig]);
  return out;
}

void SopNetwork::validate() const {
  for (const auto& [id, nd] : nodes_) {
    for (const SopCube& c : nd.cubes) {
      ODCFP_CHECK_MSG(c.lits.size() == nd.fanins.size(),
                      "cube arity mismatch on '" << names_[id] << "'");
    }
    for (SignalId in : nd.fanins) {
      ODCFP_CHECK(in < names_.size());
    }
  }
  topo_order();
}

}  // namespace odcfp
