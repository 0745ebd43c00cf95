#include "netlist/name_table.hpp"

#include <algorithm>

namespace odcfp {

void NameTable::clear() {
  std::fill(slots_.begin(), slots_.end(), Slot{kEmpty, 0});
  used_ = 0;
  live_ = 0;
}

void NameTable::rehash() {
  std::size_t capacity = 16;
  while (capacity < (live_ + 1) * 4) capacity *= 2;
  std::vector<Slot> old(capacity, Slot{kEmpty, 0});
  old.swap(slots_);
  for (const Slot& s : old) {
    if (s.id == kEmpty || s.id == kTombstone) continue;
    std::size_t i = s.hash & mask();
    while (slots_[i].id != kEmpty) i = (i + 1) & mask();
    slots_[i] = s;
  }
  used_ = live_;
}

}  // namespace odcfp
