// Allocation count of a netlist copy. Every buyer edition starts as a copy
// of the golden netlist, so the copy must cost a handful of array
// allocations, not one per gate or name. The global operator new is
// replaced here to count calls, which is why this test is a binary of its
// own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "benchgen/benchmarks.hpp"
#include "io/verilog.hpp"
#include "netlist/netlist.hpp"

namespace odcfp {
namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace
}  // namespace odcfp

void* operator new(std::size_t size) {
  odcfp::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  odcfp::g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace odcfp {
namespace {

/// Heap buffers a copy of `nl` needs beyond its arrays: one per pin list
/// past the inline capacity and one per name past the string's own.
std::size_t spilled_buffers(const Netlist& nl) {
  const std::size_t inline_chars = std::string().capacity();
  std::size_t n = nl.name().size() > inline_chars ? 1 : 0;
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const Gate& gate = nl.gate(g);
    n += gate.fanins.size() > kInlinePins ? 1 : 0;
    n += gate.name.size() > inline_chars ? 1 : 0;
  }
  for (NetId i = 0; i < nl.num_nets(); ++i) {
    n += nl.net(i).fanouts.size() > kInlinePins ? 1 : 0;
    n += nl.net(i).name.size() > inline_chars ? 1 : 0;
  }
  for (const OutputPort& p : nl.outputs()) {
    n += p.name.size() > inline_chars ? 1 : 0;
  }
  return n;
}

TEST(NetlistStoreAlloc, CopyAllocatesPerArrayAndSpilledListOnly) {
  for (const char* name : {"c880", "c3540", "i8"}) {
    SCOPED_TRACE(name);
    // The golden as a buyer order reads it: parsed from Verilog text.
    const Netlist golden = read_verilog_string(
        to_verilog_string(make_benchmark(name)), default_cell_library());
    const std::size_t spilled = spilled_buffers(golden);
    const std::uint64_t before = g_allocations.load();
    {
      const Netlist copy = golden;
      ASSERT_EQ(copy.num_gates(), golden.num_gates());
    }
    const std::uint64_t allocations = g_allocations.load() - before;
    // The gate, net, input, output and free-gate arrays and the three
    // name tables, then one buffer per spilled list or long name.
    constexpr std::uint64_t kArrays = 8;
    EXPECT_LE(allocations, kArrays + spilled);
    // Nearly every list fits inline: a copy costs far less than one
    // allocation per gate.
    EXPECT_LT(spilled * 10, golden.num_live_gates());
  }
}

}  // namespace
}  // namespace odcfp
