// 64-way bit-parallel logic simulation.
//
// Each net carries a 64-bit word; bit b of the word is the net's value
// under pattern b. One run() therefore evaluates 64 input patterns. Used
// as the fast path of equivalence checking, for brute-force validation of
// ODC conditions in tests, and for switching-activity estimation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "netlist/netlist.hpp"

namespace odcfp {

class Simulator {
 public:
  explicit Simulator(const Netlist& nl);

  /// The netlist this simulator was built for. The simulator caches the
  /// topological order, so the netlist must not be structurally modified
  /// between construction and run(); rebuild the Simulator after rewrites.
  const Netlist& netlist() const { return *nl_; }

  /// Sets the word of the i-th primary input (order of Netlist::inputs()).
  void set_input_word(std::size_t input_index, std::uint64_t word);

  /// Fills every PI word with random patterns.
  void randomize_inputs(Rng& rng);

  /// Loads PI words so that pattern b enumerates input combinations
  /// starting at `base`: PI i of pattern b = bit i of (base + b).
  /// Used for exhaustive simulation of small circuits.
  void load_counting_patterns(std::uint64_t base);

  /// Evaluates all gates in topological order.
  void run();

  /// Value word of an arbitrary net (valid after run()).
  std::uint64_t value(NetId net) const;

  /// Value words of the primary outputs, in port order.
  std::vector<std::uint64_t> output_words() const;

 private:
  const Netlist* nl_;
  std::vector<GateId> order_;
  std::vector<std::uint64_t> words_;  // indexed by NetId
};

/// Evaluates one gate over one block of at most 64 words: out[w] =
/// f(ins[0][w], ..., ins[k-1][w]) for every word w. Row-major so the word
/// loops vectorize.
inline void eval_block(const TruthTable& tt,
                       const std::vector<const std::uint64_t*>& ins,
                       std::uint64_t* out, std::size_t words) {
  ODCFP_DCHECK(words <= 64);
  std::fill(out, out + words, 0);
  std::uint64_t term[64];
  for (unsigned p = 0; p < tt.num_rows(); ++p) {
    if (!((tt.bits() >> p) & 1)) continue;
    std::fill(term, term + words, ~0ull);
    for (std::size_t i = 0; i < ins.size(); ++i) {
      const std::uint64_t flip = ((p >> i) & 1) ? 0 : ~0ull;
      for (std::size_t w = 0; w < words; ++w) term[w] &= ins[i][w] ^ flip;
    }
    for (std::size_t w = 0; w < words; ++w) out[w] |= term[w];
  }
}

/// Evaluates one gate over whole tables of `words` words (a simulation
/// word, a CEC signature or a window truth table), in blocks of at most
/// 64 words. This is the only code that evaluates a cell function over a
/// set of patterns. CEC calls it on every fresh gate of every check, so
/// it is inline, and a table of 64 words or fewer is one block.
inline void eval_signature(const TruthTable& tt,
                           const std::vector<const std::uint64_t*>& ins,
                           std::uint64_t* out, std::size_t words) {
  constexpr std::size_t kBlockWords = 64;
  // The simulator's one-word tables get the block with its size known.
  if (words == 1) return eval_block(tt, ins, out, 1);
  if (words <= kBlockWords) return eval_block(tt, ins, out, words);
  std::vector<const std::uint64_t*> block(ins.size());
  for (std::size_t base = 0; base < words; base += kBlockWords) {
    for (std::size_t i = 0; i < ins.size(); ++i) block[i] = ins[i] + base;
    eval_block(tt, block, out + base, std::min(kBlockWords, words - base));
  }
}

/// Word `w` of the truth table of free leaf `i`: pattern 64 * w + bit
/// gives leaf i the value of the pattern's bit i.
inline std::uint64_t projection_word(std::size_t i, std::size_t w) {
  static constexpr std::uint64_t kLow[6] = {
      0xAAAA'AAAA'AAAA'AAAAull, 0xCCCC'CCCC'CCCC'CCCCull,
      0xF0F0'F0F0'F0F0'F0F0ull, 0xFF00'FF00'FF00'FF00ull,
      0xFFFF'0000'FFFF'0000ull, 0xFFFF'FFFF'0000'0000ull};
  if (i < 6) return kLow[i];
  return ((w >> (i - 6)) & 1) ? ~0ull : 0;
}

}  // namespace odcfp
