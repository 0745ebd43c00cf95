// Small-function truth tables (up to 6 inputs) used for cell functions,
// ODC computation, simulation, and CNF generation.
//
// Convention: a TruthTable over n inputs stores 2^n output bits in a
// uint64_t. Bit p (0-indexed) is the output for the input pattern p, where
// input i has the value (p >> i) & 1 — i.e. input 0 is the least
// significant bit of the pattern index.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace odcfp {

class TruthTable {
 public:
  static constexpr int kMaxInputs = 6;

  /// Constant-zero function of n inputs.
  explicit TruthTable(int num_inputs = 0, std::uint64_t bits = 0);

  /// Named constructors for the usual gate functions.
  static TruthTable constant(int num_inputs, bool value);
  static TruthTable identity();                 // 1-input buffer
  static TruthTable inverter();                 // 1-input NOT
  static TruthTable and_n(int n, bool negate_output = false);
  static TruthTable or_n(int n, bool negate_output = false);
  static TruthTable xor_n(int n, bool negate_output = false);
  static TruthTable mux();                      // 3 inputs: s ? b : a  (in2=s)
  static TruthTable aoi21();                    // !((in0 & in1) | in2)
  static TruthTable oai21();                    // !((in0 | in1) & in2)

  int num_inputs() const { return num_inputs_; }
  std::uint64_t bits() const { return bits_; }

  /// Number of rows (2^n).
  unsigned num_rows() const { return 1u << num_inputs_; }

  /// All-ones mask for the table width.
  std::uint64_t mask() const;

  /// Output value for input pattern p.
  bool eval(unsigned pattern) const;

  /// Evaluates with explicit input values (values.size() == num_inputs()).
  bool eval(const std::vector<bool>& values) const;

  /// Positive/negative cofactor with respect to input `var`: the returned
  /// table still has the same arity but no longer depends on `var`.
  TruthTable cofactor(int var, bool value) const;

  /// True if the function's value depends on input `var`.
  bool depends_on(int var) const;

  /// True if the function is constant (0 or 1) over all patterns.
  bool is_constant() const;
  bool constant_value() const;  // requires is_constant()

  TruthTable operator~() const;
  TruthTable operator&(const TruthTable& o) const;
  TruthTable operator|(const TruthTable& o) const;
  TruthTable operator^(const TruthTable& o) const;
  bool operator==(const TruthTable& o) const = default;

  /// Builds the table for this function with one input complemented.
  TruthTable with_input_negated(int var) const;

  /// Extends the function to n' >= n inputs (new inputs are don't-cares at
  /// the high positions).
  TruthTable extended_to(int new_num_inputs) const;

 private:
  int num_inputs_;
  std::uint64_t bits_;
};

}  // namespace odcfp
