#include "sim/simulator.hpp"

#include "common/check.hpp"

namespace odcfp {

Simulator::Simulator(const Netlist& nl)
    : nl_(&nl), order_(nl.topo_order()), words_(nl.num_nets(), 0) {}

void Simulator::set_input_word(std::size_t input_index, std::uint64_t word) {
  ODCFP_CHECK(input_index < nl_->inputs().size());
  words_[nl_->inputs()[input_index]] = word;
}

void Simulator::randomize_inputs(Rng& rng) {
  for (NetId pi : nl_->inputs()) words_[pi] = rng.next_u64();
}

void Simulator::load_counting_patterns(std::uint64_t base) {
  const auto& pis = nl_->inputs();
  for (std::size_t i = 0; i < pis.size(); ++i) {
    std::uint64_t w = 0;
    for (unsigned b = 0; b < 64; ++b) {
      if (((base + b) >> i) & 1) w |= 1ull << b;
    }
    words_[pis[i]] = w;
  }
}

void Simulator::run() {
  std::vector<const std::uint64_t*> ins;
  for (GateId g : order_) {
    const Gate& gt = nl_->gate(g);
    const TruthTable& tt = nl_->library().cell(gt.cell).function;
    ins.clear();
    for (NetId in : gt.fanins) ins.push_back(&words_[in]);
    eval_signature(tt, ins, &words_[gt.output], 1);
  }
}

std::uint64_t Simulator::value(NetId net) const {
  ODCFP_CHECK(net < words_.size());
  return words_[net];
}

std::vector<std::uint64_t> Simulator::output_words() const {
  std::vector<std::uint64_t> out;
  out.reserve(nl_->outputs().size());
  for (const OutputPort& p : nl_->outputs()) out.push_back(words_[p.net]);
  return out;
}

}  // namespace odcfp
