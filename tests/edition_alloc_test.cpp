// Allocation counts of the calls every buyer edition goes through:
// make_edition (copy the golden, embed the codeword, time it once),
// extract_code (decode it again) and a steady-state IncrementalCecSession
// check (prove it). Each must allocate per call, not per site or per
// gate. The global operator new is replaced here to count calls, which
// is why this test is a binary of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "benchgen/benchmarks.hpp"
#include "equiv/cec.hpp"
#include "fingerprint/batch.hpp"
#include "fingerprint/codewords.hpp"
#include "fingerprint/embedder.hpp"
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

/// Editions per session, as batch_verify_equivalence chunks them.
constexpr std::size_t kSessionEditions = 16;
/// The checks measured: the last ones of the session.
constexpr std::size_t kSteadyChecks = 4;
/// Allocations a call may make beyond what its bound names: the
/// per-call vectors of timing, power, the embedder's site state and the
/// name tables' growth.
constexpr std::uint64_t kSlack = 32;

/// The golden as a buyer order reads it, with its sites and a codebook.
struct Order {
  Netlist golden;
  std::vector<FingerprintLocation> locs;
  std::size_t sites = 0;
  StaticTimingAnalyzer sta;
  PowerAnalyzer power;
  Baseline baseline;

  explicit Order(const char* name)
      : golden(read_verilog_string(to_verilog_string(make_benchmark(name)),
                                   default_cell_library())),
        locs(find_locations(golden)),
        sites(total_sites(locs)),
        baseline(Baseline::measure(golden, sta, power)) {}
};

/// Pin lists of `edition` past the inline capacity whose golden
/// counterpart was not: each spilled once while the code was embedded.
std::uint64_t lists_spilled_by_code(const Netlist& golden,
                                    const Netlist& edition) {
  std::uint64_t n = 0;
  for (GateId g = 0; g < edition.num_gates(); ++g) {
    const bool was = g < golden.num_gates() &&
                     golden.gate(g).fanins.size() > kInlinePins;
    n += edition.gate(g).fanins.size() > kInlinePins && !was ? 1 : 0;
  }
  for (NetId i = 0; i < edition.num_nets(); ++i) {
    const bool was = i < golden.num_nets() &&
                     golden.net(i).fanouts.size() > kInlinePins;
    n += edition.net(i).fanouts.size() > kInlinePins && !was ? 1 : 0;
  }
  return n;
}

std::uint64_t copy_allocations(const Netlist& golden) {
  const std::uint64_t before = g_allocations.load();
  {
    const Netlist copy = golden;
    EXPECT_EQ(copy.num_gates(), golden.num_gates());
  }
  return g_allocations.load() - before;
}

TEST(EditionAlloc, MakeEditionAllocatesTheCopyAndTheCodeOnly) {
  for (const char* name : {"c880", "c3540", "i8"}) {
    SCOPED_TRACE(name);
    const Order order(name);
    ASSERT_FALSE(order.locs.empty());
    const Codebook book(order.locs, 4, 11);
    const std::uint64_t copy = copy_allocations(order.golden);
    BatchOptions options;
    options.max_delay_overhead = 0;
    for (std::size_t b = 0; b < book.num_buyers(); ++b) {
      const std::uint64_t before = g_allocations.load();
      const BuyerEdition e = make_edition(order.golden, book, b,
                                          order.baseline, order.sta,
                                          order.power, options);
      const std::uint64_t allocations = g_allocations.load() - before;
      const std::uint64_t spilled =
          lists_spilled_by_code(order.golden, e.netlist);
      std::printf("[ edition ] %s buyer %zu: make_edition %llu allocations "
                  "(copy %llu, %zu locations, %zu sites, %llu spilled)\n",
                  name, b, static_cast<unsigned long long>(allocations),
                  static_cast<unsigned long long>(copy), order.locs.size(),
                  order.sites, static_cast<unsigned long long>(spilled));
      // The copy, the code (one vector per location and the outer one),
      // one buffer per pin list the code widened past the inline
      // capacity, and a fixed rest. Nothing per site.
      EXPECT_LE(allocations,
                copy + 1 + order.locs.size() + spilled + kSlack);
    }
  }
}

TEST(EditionAlloc, ExtractCodeAllocatesTheCodeOnly) {
  for (const char* name : {"c880", "c3540", "i8"}) {
    SCOPED_TRACE(name);
    const Order order(name);
    const Codebook book(order.locs, 4, 12);
    const BuyerEdition e = make_edition(order.golden, book, 3, order.baseline,
                                        order.sta, order.power, {});
    const std::uint64_t before = g_allocations.load();
    const FingerprintCode code = extract_code(e.netlist, order.golden,
                                              order.locs);
    const std::uint64_t allocations = g_allocations.load() - before;
    EXPECT_EQ(code, book.code(3));
    std::printf("[ extract ] %s: extract_code %llu allocations "
                "(%zu locations)\n",
                name, static_cast<unsigned long long>(allocations),
                order.locs.size());
    // The code it returns, the sorted site-gate list, and a few more.
    EXPECT_LE(allocations, 1 + order.locs.size() + 8);
  }
}

TEST(EditionAlloc, SteadyStateChecksAllocatePerCheck) {
  for (const char* name : {"c880", "c3540", "i8"}) {
    SCOPED_TRACE(name);
    const Order order(name);
    const Codebook book(order.locs, kSessionEditions, 13);
    std::vector<BuyerEdition> editions;
    for (std::size_t b = 0; b < kSessionEditions; ++b) {
      editions.push_back(make_edition(order.golden, book, b, order.baseline,
                                      order.sta, order.power, {}));
    }
    IncrementalCecSession session(order.golden);
    std::size_t measured = 0;
    for (std::size_t b = 0; b < kSessionEditions; ++b) {
      const std::uint64_t before = g_allocations.load();
      const CecResult r = session.check(editions[b].netlist);
      const std::uint64_t allocations = g_allocations.load() - before;
      ASSERT_TRUE(r.equivalent()) << "buyer " << b;
      if (b + kSteadyChecks < kSessionEditions) continue;
      const bool queried = r.sat_stats.propagations != 0;
      std::printf("[ check   ] %s buyer %zu: %llu allocations%s\n", name, b,
                  static_cast<unsigned long long>(allocations),
                  queried ? " (ran SAT queries)" : "");
      // A SAT query allocates clause storage; those checks are not
      // bounded here.
      if (queried) continue;
      ++measured;
      EXPECT_LE(allocations, kSlack) << "buyer " << b;
    }
    // c880's and c3540's editions are proven without a query, so their
    // checks are the ones this test bounds.
    if (std::string(name) != "i8") {
      EXPECT_EQ(measured, kSteadyChecks);
    }
  }
}

}  // namespace
}  // namespace odcfp
