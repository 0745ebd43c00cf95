// Allocation counts of one reactive_reduce at the settings an order's
// site selection runs it with (5% delay limit, one restart, 32 candidates
// per iteration). Trials roll the tracker back and reuse every buffer, so
// a run allocates per run and per permanent removal, not per trial. The
// global operator new is replaced here to count calls, which is why this
// test is a binary of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "benchgen/benchmarks.hpp"
#include "fingerprint/embedder.hpp"
#include "fingerprint/heuristics.hpp"
#include "fingerprint/location.hpp"
#include "io/verilog.hpp"
#include "power/power.hpp"
#include "timing/sta.hpp"

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

TEST(ReduceAlloc, OneReduceAllocatesPerRunNotPerTrial) {
  // Bounds for one reactive_reduce; when every trial re-timed through a
  // fresh queue, seed lists and slack vectors, the same calls made 15,765
  // (c432), 18,297 (c3540) and 14,253 (i8) allocations.
  const struct {
    const char* name;
    std::uint64_t bound;
  } cases[] = {{"c432", 1000}, {"c3540", 1500}, {"i8", 2000}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    // The golden as an order reads it: written and parsed back.
    const Netlist golden = read_verilog_string(
        to_verilog_string(make_benchmark(c.name)), default_cell_library());
    const std::vector<FingerprintLocation> locs = find_locations(golden);
    const StaticTimingAnalyzer sta;
    const PowerAnalyzer power;
    const Baseline base = Baseline::measure(golden, sta, power);
    Netlist work = golden;
    FingerprintEmbedder embedder(work, locs);
    embedder.apply_all_generic();
    ReactiveOptions options;
    options.max_delay_overhead = 0.05;
    options.restarts = 1;
    const std::uint64_t before = g_allocations.load();
    const HeuristicOutcome out =
        reactive_reduce(embedder, base, sta, power, options);
    const std::uint64_t allocations = g_allocations.load() - before;
    ASSERT_EQ(out.status, Status::kOk);
    std::printf("[ reduce  ] %s: reactive_reduce %llu allocations "
                "(%zu sites, %zu kept, %zu STA evaluations)\n",
                c.name, static_cast<unsigned long long>(allocations),
                out.sites_total, out.sites_kept, out.sta_evaluations);
    EXPECT_LE(allocations, c.bound);
  }
}

}  // namespace
}  // namespace odcfp
