#include "library/truth_table.hpp"

#include "common/check.hpp"

namespace odcfp {

TruthTable::TruthTable(int num_inputs, std::uint64_t bits)
    : num_inputs_(num_inputs), bits_(bits) {
  ODCFP_CHECK(num_inputs >= 0 && num_inputs <= kMaxInputs);
  bits_ &= mask();
}

std::uint64_t TruthTable::mask() const {
  return (num_inputs_ == kMaxInputs) ? ~0ull : ((1ull << num_rows()) - 1);
}

TruthTable TruthTable::constant(int num_inputs, bool value) {
  TruthTable tt(num_inputs, 0);
  if (value) tt.bits_ = tt.mask();
  return tt;
}

TruthTable TruthTable::identity() { return TruthTable(1, 0b10); }

TruthTable TruthTable::inverter() { return TruthTable(1, 0b01); }

TruthTable TruthTable::and_n(int n, bool negate_output) {
  ODCFP_CHECK(n >= 1 && n <= kMaxInputs);
  TruthTable tt(n, 0);
  tt.bits_ = 1ull << (tt.num_rows() - 1);  // only the all-ones pattern
  if (negate_output) tt.bits_ = ~tt.bits_ & tt.mask();
  return tt;
}

TruthTable TruthTable::or_n(int n, bool negate_output) {
  ODCFP_CHECK(n >= 1 && n <= kMaxInputs);
  TruthTable tt(n, 0);
  tt.bits_ = (tt.mask() & ~1ull);  // everything but the all-zero pattern
  if (negate_output) tt.bits_ = ~tt.bits_ & tt.mask();
  return tt;
}

TruthTable TruthTable::xor_n(int n, bool negate_output) {
  ODCFP_CHECK(n >= 1 && n <= kMaxInputs);
  TruthTable tt(n, 0);
  for (unsigned p = 0; p < tt.num_rows(); ++p) {
    if (__builtin_parity(p)) tt.bits_ |= 1ull << p;
  }
  if (negate_output) tt.bits_ = ~tt.bits_ & tt.mask();
  return tt;
}

TruthTable TruthTable::mux() {
  // inputs: 0 = a, 1 = b, 2 = select; out = s ? b : a.
  TruthTable tt(3, 0);
  for (unsigned p = 0; p < 8; ++p) {
    const bool a = p & 1, b = p & 2, s = p & 4;
    if (s ? b : a) tt.bits_ |= 1ull << p;
  }
  return tt;
}

TruthTable TruthTable::aoi21() {
  TruthTable tt(3, 0);
  for (unsigned p = 0; p < 8; ++p) {
    const bool a = p & 1, b = p & 2, c = p & 4;
    if (!((a && b) || c)) tt.bits_ |= 1ull << p;
  }
  return tt;
}

TruthTable TruthTable::oai21() {
  TruthTable tt(3, 0);
  for (unsigned p = 0; p < 8; ++p) {
    const bool a = p & 1, b = p & 2, c = p & 4;
    if (!((a || b) && c)) tt.bits_ |= 1ull << p;
  }
  return tt;
}

bool TruthTable::eval(unsigned pattern) const {
  ODCFP_DCHECK(pattern < num_rows());
  return (bits_ >> pattern) & 1;
}

bool TruthTable::eval(const std::vector<bool>& values) const {
  ODCFP_CHECK(static_cast<int>(values.size()) == num_inputs_);
  unsigned p = 0;
  for (int i = 0; i < num_inputs_; ++i) {
    if (values[static_cast<std::size_t>(i)]) p |= 1u << i;
  }
  return eval(p);
}

TruthTable TruthTable::cofactor(int var, bool value) const {
  ODCFP_CHECK(var >= 0 && var < num_inputs_);
  TruthTable out(num_inputs_, 0);
  for (unsigned p = 0; p < num_rows(); ++p) {
    unsigned q = value ? (p | (1u << var)) : (p & ~(1u << var));
    if (eval(q)) out.bits_ |= 1ull << p;
  }
  return out;
}

bool TruthTable::depends_on(int var) const {
  return cofactor(var, false) != cofactor(var, true);
}

bool TruthTable::is_constant() const {
  return bits_ == 0 || bits_ == mask();
}

bool TruthTable::constant_value() const {
  ODCFP_CHECK(is_constant());
  return bits_ != 0;
}

TruthTable TruthTable::operator~() const {
  return TruthTable(num_inputs_, ~bits_ & mask());
}

TruthTable TruthTable::operator&(const TruthTable& o) const {
  ODCFP_CHECK(num_inputs_ == o.num_inputs_);
  return TruthTable(num_inputs_, bits_ & o.bits_);
}

TruthTable TruthTable::operator|(const TruthTable& o) const {
  ODCFP_CHECK(num_inputs_ == o.num_inputs_);
  return TruthTable(num_inputs_, bits_ | o.bits_);
}

TruthTable TruthTable::operator^(const TruthTable& o) const {
  ODCFP_CHECK(num_inputs_ == o.num_inputs_);
  return TruthTable(num_inputs_, bits_ ^ o.bits_);
}

TruthTable TruthTable::with_input_negated(int var) const {
  ODCFP_CHECK(var >= 0 && var < num_inputs_);
  TruthTable out(num_inputs_, 0);
  for (unsigned p = 0; p < num_rows(); ++p) {
    if (eval(p ^ (1u << var))) out.bits_ |= 1ull << p;
  }
  return out;
}

TruthTable TruthTable::extended_to(int new_num_inputs) const {
  ODCFP_CHECK(new_num_inputs >= num_inputs_ &&
              new_num_inputs <= kMaxInputs);
  TruthTable out(new_num_inputs, 0);
  for (unsigned p = 0; p < out.num_rows(); ++p) {
    if (eval(p & (num_rows() - 1))) out.bits_ |= 1ull << p;
  }
  return out;
}

}  // namespace odcfp
