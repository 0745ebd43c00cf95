// NameTable: the netlist's name lookups (net, gate and output-port names).
//
// An open-addressed, linearly probed hash table of ids. It stores no
// names: each slot holds an id and the 32-bit hash of its name, and a
// lookup compares the probed name with the one its owner already keeps
// (the Net's, Gate's or port's), which the caller hands in as
// `name_of(id)`. So no entry owns a heap node, and copying a table copies
// one std::vector. An erased slot becomes a tombstone that later inserts
// reuse; a rehash, at half load, drops the tombstones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace odcfp {

class NameTable {
 public:
  /// What find() returns for an absent name (== kInvalidNet/kInvalidGate).
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// The id named `name`, or kNone.
  template <class NameOf>
  std::uint32_t find(std::string_view name, const NameOf& name_of) const {
    const std::size_t slot = locate(name, hash(name), name_of);
    return slot == kNoSlot ? kNone : slots_[slot].id;
  }

  /// Adds `id` (below kNone - 1) under `name` unless an id of that name
  /// is present, and returns the id the name has now: `id` if it was
  /// added, else the one present. `id` itself is not read through
  /// `name_of`.
  template <class NameOf>
  std::uint32_t insert(std::string_view name, std::uint32_t id,
                       const NameOf& name_of) {
    if ((used_ + 1) * 2 > slots_.size()) rehash();
    const std::uint32_t h = hash(name);
    std::size_t target = kNoSlot;
    for (std::size_t i = h & mask();; i = (i + 1) & mask()) {
      const Slot& s = slots_[i];
      if (s.id == kEmpty) {
        if (target == kNoSlot) {
          target = i;
          ++used_;
        }
        break;
      }
      if (s.id == kTombstone) {
        if (target == kNoSlot) target = i;
      } else if (s.hash == h && name_of(s.id) == name) {
        return s.id;
      }
    }
    slots_[target] = {id, h};
    ++live_;
    return id;
  }

  /// Removes the id named `name`; true if there was one.
  template <class NameOf>
  bool erase(std::string_view name, const NameOf& name_of) {
    const std::size_t slot = locate(name, hash(name), name_of);
    if (slot == kNoSlot) return false;
    // A slot followed by an empty one ends every probe that reaches it,
    // so it can be empty again rather than a tombstone.
    if (slots_[(slot + 1) & mask()].id == kEmpty) {
      slots_[slot].id = kEmpty;
      --used_;
    } else {
      slots_[slot].id = kTombstone;
    }
    --live_;
    return true;
  }

  /// Removes every id and keeps the slots.
  void clear();

  /// Ids in the table.
  std::size_t size() const { return live_; }
  /// Slots, live, tombstoned and empty (0 or a power of two).
  std::size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    std::uint32_t id;
    std::uint32_t hash;
  };
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  static constexpr std::uint32_t kTombstone = kEmpty - 1;
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  static std::uint32_t hash(std::string_view name) {
    const std::uint64_t h = std::hash<std::string_view>{}(name);
    return static_cast<std::uint32_t>(h ^ (h >> 32));
  }
  std::size_t mask() const { return slots_.size() - 1; }

  template <class NameOf>
  std::size_t locate(std::string_view name, std::uint32_t h,
                     const NameOf& name_of) const {
    if (slots_.empty()) return kNoSlot;
    for (std::size_t i = h & mask();; i = (i + 1) & mask()) {
      const Slot& s = slots_[i];
      if (s.id == kEmpty) return kNoSlot;
      if (s.id != kTombstone && s.hash == h && name_of(s.id) == name) {
        return i;
      }
    }
  }

  /// Re-places the live ids into a table at most a quarter full.
  void rehash();

  std::vector<Slot> slots_;
  std::size_t used_ = 0;  ///< Live and tombstoned slots.
  std::size_t live_ = 0;
};

}  // namespace odcfp
