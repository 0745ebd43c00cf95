// PinList: the pin lists of a netlist (a gate's fanins, a net's fanouts).
//
// A PinList holds up to kInlinePins entries inside the object and spills
// to one `operator new` buffer only beyond that, so copying a netlist
// copies most pin lists with its gate and net arrays and allocates
// nothing for them. Elements are trivially copyable ids.
//
// Unlike a std::vector, whose heap buffer stays put when the vector
// object moves, inline entries move with the list: an iterator or pointer
// into a Gate's fanins or a Net's fanouts dangles once the netlist's gate
// or net array grows. Copy the list first when the loop adds gates or
// nets.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <type_traits>

namespace odcfp {

/// Entries a pin list stores inline. Every default-library cell has at
/// most 4 inputs, and 91-99% of the nets of c432, c880, c1908, c3540, i8
/// and des have at most 4 fanouts.
inline constexpr std::uint32_t kInlinePins = 4;

template <class T, std::uint32_t N = kInlinePins>
class PinList {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(N > 0);

 public:
  using value_type = T;
  using size_type = std::size_t;

  PinList() noexcept {}
  PinList(const PinList& other) { assign(other); }
  PinList(PinList&& other) noexcept { take(other); }
  PinList& operator=(const PinList& other) {
    if (this != &other) assign(other);
    return *this;
  }
  PinList& operator=(PinList&& other) noexcept {
    if (this != &other) {
      release();
      take(other);
    }
    return *this;
  }
  ~PinList() { release(); }

  T* data() noexcept { return spilled() ? heap_ : inline_; }
  const T* data() const noexcept { return spilled() ? heap_ : inline_; }
  size_type size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  /// True once the entries live in a heap buffer.
  bool spilled() const noexcept { return capacity_ > N; }

  T* begin() noexcept { return data(); }
  T* end() noexcept { return data() + size_; }
  const T* begin() const noexcept { return data(); }
  const T* end() const noexcept { return data() + size_; }

  T& operator[](size_type i) noexcept {
    check_index(i);
    return data()[i];
  }
  const T& operator[](size_type i) const noexcept {
    check_index(i);
    return data()[i];
  }

  /// Replaces the entries with `items`, which may be a view of this list.
  void assign(std::span<const T> items) {
    const auto n = static_cast<std::uint32_t>(items.size());
    if (n > capacity_) {
      T* buffer = allocate(n);
      std::memcpy(buffer, items.data(), n * sizeof(T));
      release();
      heap_ = buffer;
      capacity_ = n;
    } else if (n > 0) {
      std::memmove(data(), items.data(), n * sizeof(T));
    }
    size_ = n;
  }

  void push_back(T value) {
    if (size_ == capacity_) grow();
    data()[size_++] = value;
  }
  /// Removes the entry at `pos`, keeping the order of the rest.
  void erase(const T* pos) noexcept {
    T* first = data();
    const auto i = static_cast<size_type>(pos - first);
    check_index(i);
    std::memmove(first + i, first + i + 1, (size_ - i - 1) * sizeof(T));
    --size_;
  }
  /// Drops the entries and keeps the buffer.
  void clear() noexcept { size_ = 0; }

  friend bool operator==(const PinList& a, const PinList& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  void check_index([[maybe_unused]] size_type i) const noexcept {
#ifdef _GLIBCXX_ASSERTIONS
    // The bounds check std::vector::operator[] makes in this mode.
    __glibcxx_assert(i < size_);
#endif
  }

  static T* allocate(std::uint32_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void grow() {
    const std::uint32_t want = capacity_ * 2;
    T* buffer = allocate(want);
    std::memcpy(buffer, data(), size_ * sizeof(T));
    release();
    heap_ = buffer;
    capacity_ = want;
  }

  void release() noexcept {
    if (spilled()) ::operator delete(heap_);
    capacity_ = N;
  }

  /// Moves `other`'s entries here (this list holds no buffer) and leaves
  /// `other` empty and inline.
  void take(PinList& other) noexcept {
    size_ = other.size_;
    capacity_ = other.capacity_;
    if (other.spilled()) {
      heap_ = other.heap_;
    } else {
      std::memcpy(inline_, other.inline_, size_ * sizeof(T));
    }
    other.size_ = 0;
    other.capacity_ = N;
  }

  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = N;
  union {
    T inline_[N];
    T* heap_;
  };
};

}  // namespace odcfp
