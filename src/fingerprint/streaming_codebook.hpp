// Streaming buyer codewords: O(capacity bits) memory for any buyer count.
//
// The materialized Codebook rejection-samples random distinct bitstrings
// and stores every codeword, which is fine at the paper's scale (tens of
// copies) and hopeless at service scale (a million-buyer order would
// materialize a million FingerprintCodes before the first edition is
// stamped). StreamingCodebook instead *derives* buyer b's codeword on
// demand as a pure function of (locations, seed, b):
//
//   bits(b) = binary(b) XOR keystream(seed)        over usable_bits(locs)
//   code(b) = encode_bits(locs, bits(b))
//
// XOR with a fixed keystream is a bijection on bitstrings, so codewords
// are distinct for every b < 2^usable_bits — the same distinctness
// guarantee the materialized book provides, by construction instead of
// by rejection sampling. Only the keystream (one bool per capacity bit)
// and the location reference are stored; code_of is O(sites) per call
// and the iterator below walks a million-buyer order in constant memory.
//
// The two constructions emit DIFFERENT codewords for the same seed; a
// run's journal/config CRC covers the actual codeword bytes, so the two
// can never be silently mixed within one resumable run.
#pragma once

#include <cstdint>
#include <vector>

#include "fingerprint/codewords.hpp"

namespace odcfp {

class StreamingCodebook : public CodebookSource {
 public:
  /// Throws CheckError when num_buyers exceeds the distinct-codeword
  /// capacity 2^min(usable_bits(locs), 63) (capacity(locs) below).
  StreamingCodebook(const std::vector<FingerprintLocation>& locs,
                    std::size_t num_buyers, std::uint64_t seed);

  /// Largest buyer count this location set can serve with distinct
  /// streaming codewords (saturates at 2^63 to stay in u64 range).
  static std::uint64_t capacity(
      const std::vector<FingerprintLocation>& locs);

  std::size_t num_buyers() const override { return num_buyers_; }
  const std::vector<FingerprintLocation>& locations() const override {
    return *locs_;
  }
  FingerprintCode code_of(std::size_t buyer) const override;

 private:
  const std::vector<FingerprintLocation>* locs_;
  std::size_t num_buyers_ = 0;
  std::vector<bool> keystream_;  ///< usable_bits(locs) entries.
};

}  // namespace odcfp
