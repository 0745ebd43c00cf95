// Technology-independent logic network in sum-of-products form.
//
// This is the representation a BLIF file parses into (one node per
// `.names` block, each an OR of cubes over its fanins) and the input to
// the technology mapper in mapper.hpp. It mirrors what the paper obtains
// from MCNC/ISCAS'85 BLIF before running ABC.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"

namespace odcfp {

using SignalId = std::uint32_t;
inline constexpr SignalId kInvalidSignal = ~SignalId{0};

/// Literal polarity inside a cube, one entry per node fanin.
enum class CubeLit : std::int8_t { kNeg = 0, kPos = 1, kDontCare = 2 };

/// A product term over a node's fanins.
struct SopCube {
  std::vector<CubeLit> lits;  ///< lits.size() == node fanin count.
};

/// A logic node: OR of cubes over the fanin signals. An empty cube list is
/// constant 0 (or constant 1 when `complemented` — the BLIF off-set form).
struct SopNode {
  std::vector<SignalId> fanins;
  std::vector<SopCube> cubes;
  bool complemented = false;  ///< Cover describes the off-set.
};

class SopNetwork {
 public:
  explicit SopNetwork(std::string model_name = "top")
      : name_(std::move(model_name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  /// Creates or finds a signal by name.
  SignalId signal(const std::string& name);
  SignalId find_signal(const std::string& name) const;
  const std::string& signal_name(SignalId id) const;
  std::size_t num_signals() const { return names_.size(); }

  void mark_input(SignalId id);
  void mark_output(SignalId id);
  const std::vector<SignalId>& inputs() const { return inputs_; }
  const std::vector<SignalId>& outputs() const { return outputs_; }
  bool is_input(SignalId id) const;

  /// Installs the defining node for `id`. Each non-PI signal must be
  /// defined exactly once.
  void set_node(SignalId id, SopNode node);
  const SopNode& node(SignalId id) const;

  /// Signals in fanin-before-fanout order (PIs excluded). Throws on cycles
  /// or undefined non-PI signals that are actually used.
  std::vector<SignalId> topo_order() const;

  /// Word-parallel evaluation: input_words[i] corresponds to inputs()[i].
  /// Returns one word per output in outputs() order.
  std::vector<std::uint64_t> evaluate(
      const std::vector<std::uint64_t>& input_words) const;

  /// Structural checks (fanin arity of cubes, all used signals defined).
  void validate() const;

 private:
  std::string name_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, SignalId> by_name_;
  std::vector<SignalId> inputs_;
  std::vector<SignalId> outputs_;
  std::unordered_map<SignalId, SopNode> nodes_;
  std::vector<bool> is_input_;
};

}  // namespace odcfp
