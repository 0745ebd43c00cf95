// Tests for the parallel task layer and the multi-buyer batch pipeline.
//
// The load-bearing property is the determinism contract: every result —
// locations, window ODCs, stamped editions, CEC verdicts, trace rankings
// — must be byte-identical for any thread count, including fully serial.
#include "fingerprint/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <memory>
#include <stdexcept>
#include <thread>

#include "benchgen/benchmarks.hpp"
#include "common/parallel.hpp"
#include "common/telemetry.hpp"
#include "fingerprint/codewords.hpp"
#include "odc/window.hpp"

namespace odcfp {
namespace {

// ---------------------------------------------------------------- pool

TEST(ParallelFor, ZeroItemsIsOk) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.parallel_for(0, [](std::size_t) { FAIL(); }),
            Status::kOk);
}

TEST(ParallelFor, RunsEveryItemExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 1000;
  // Each item writes only its own slot — the contract callers rely on.
  std::vector<int> hits(n, 0);
  ASSERT_EQ(pool.parallel_for(n, [&](std::size_t i) { ++hits[i]; }),
            Status::kOk);
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ParallelFor, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::size_t count = 0;  // safe: no workers exist
  EXPECT_EQ(pool.parallel_for(64, [&](std::size_t) { ++count; }),
            Status::kOk);
  EXPECT_EQ(count, 64u);
}

TEST(ParallelFor, NullPoolRunsSerially) {
  std::vector<std::size_t> order;
  EXPECT_EQ(parallel_for(nullptr, 8,
                         [&](std::size_t i) { order.push_back(i); }),
            Status::kOk);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ParallelFor, MapAssemblesResultsInIndexOrder) {
  ThreadPool pool(8);
  auto [out, status] = parallel_map(
      &pool, 500, [](std::size_t i) { return i * i + 1; });
  ASSERT_EQ(status, Status::kOk);
  ASSERT_EQ(out.size(), 500u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i * i + 1);
  }
}

TEST(ParallelFor, RethrowsItemExceptionOnCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t i) {
                          if (i == 37) throw std::runtime_error("item 37");
                        }),
      std::runtime_error);
}

TEST(ParallelFor, SpentBudgetSkipsEveryItem) {
  ThreadPool pool(4);
  CancelToken token;
  token.cancel();
  Budget budget;
  budget.with_cancel(token);
  std::atomic<int> ran{0};
  EXPECT_EQ(pool.parallel_for(50, [&](std::size_t) { ++ran; }, &budget),
            Status::kExhausted);
  EXPECT_EQ(ran.load(), 0);
}

TEST(ParallelFor, CancelTokenStopsIssuingItems) {
  // Serial path for a deterministic cut point; the pool path shares the
  // same per-item budget poll.
  CancelToken token;
  Budget budget;
  budget.with_cancel(token);
  std::size_t ran = 0;
  EXPECT_EQ(parallel_for(nullptr, 100,
                         [&](std::size_t i) {
                           ++ran;
                           if (i == 4) token.cancel();
                         },
                         &budget),
            Status::kExhausted);
  EXPECT_EQ(ran, 5u);
}

TEST(ParallelFor, NestedLoopDegradesToSerial) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  ASSERT_EQ(pool.parallel_for(4,
                              [&](std::size_t) {
                                // Inner loop while the outer is in
                                // flight: must run inline, not deadlock.
                                pool.parallel_for(
                                    8, [&](std::size_t) { ++total; });
                              }),
            Status::kOk);
  EXPECT_EQ(total.load(), 32);
}

TEST(ParallelFor, WorkerSpansNestUnderTheCallersOpenSpans) {
  // The body has no AttachScope of its own: the pool re-roots each item
  // a worker runs under the spans open on the calling thread.
  telemetry::set_enabled(true);
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    telemetry::flush_thread();
    telemetry::reset();
    ThreadPool pool(threads);
    // Barrier workload: with exactly num_threads items, each blocking
    // until all have started, every thread must claim one item.
    const std::size_t n = static_cast<std::size_t>(pool.num_threads());
    std::atomic<std::size_t> arrived{0};
    {
      TELEM_SPAN("phase");
      ASSERT_EQ(parallel_for(&pool, n,
                             [&](std::size_t) {
                               TELEM_SPAN("item");
                               arrived.fetch_add(1);
                               while (arrived.load() < n) {
                                 std::this_thread::yield();
                               }
                             }),
                Status::kOk);
    }
    const telemetry::Node root = telemetry::snapshot();
    const telemetry::Node* item = root.find({"phase", "item"});
    ASSERT_NE(item, nullptr);
    EXPECT_EQ(item->count, n);
    ASSERT_EQ(root.children.size(), 1u);  // nothing at the root but phase
    EXPECT_EQ(root.find({"phase"})->count, 1u);
  }
}

TEST(ParallelFor, IdleWorkerDoesNotSpin) {
  // One 200 ms item leaves the pool's worker with nothing to do: it must
  // sleep until the next loop, not re-join this one in a busy loop while
  // the item runs. The item itself sleeps, so the process burns (almost)
  // no CPU time.
  ThreadPool pool(2);
  const std::clock_t before = std::clock();
  ASSERT_EQ(pool.parallel_for(1,
                              [](std::size_t) {
                                std::this_thread::sleep_for(
                                    std::chrono::milliseconds(200));
                              }),
            Status::kOk);
  const double cpu_ms = 1000.0 * static_cast<double>(std::clock() - before) /
                        CLOCKS_PER_SEC;
  EXPECT_LT(cpu_ms, 50.0);
}

// ------------------------------------------- thread-count invariance

bool same_locations(const std::vector<FingerprintLocation>& a,
                    const std::vector<FingerprintLocation>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const FingerprintLocation& x = a[i];
    const FingerprintLocation& y = b[i];
    if (x.primary != y.primary || x.y_pin != y.y_pin ||
        x.y_net != y.y_net || x.y_driver != y.y_driver ||
        x.trigger_pin != y.trigger_pin || x.trigger_net != y.trigger_net ||
        x.trigger_value != y.trigger_value ||
        x.sites.size() != y.sites.size()) {
      return false;
    }
    for (std::size_t s = 0; s < x.sites.size(); ++s) {
      if (x.sites[s].gate != y.sites[s].gate ||
          x.sites[s].inject_class != y.sites[s].inject_class ||
          x.sites[s].options.size() != y.sites[s].options.size()) {
        return false;
      }
      for (std::size_t o = 0; o < x.sites[s].options.size(); ++o) {
        const ModOption& p = x.sites[s].options[o];
        const ModOption& q = y.sites[s].options[o];
        if (p.kind != q.kind || p.source != q.source ||
            p.invert != q.invert || p.source2 != q.source2 ||
            p.invert2 != q.invert2) {
          return false;
        }
      }
    }
  }
  return true;
}

TEST(ThreadInvariance, LocationsIdenticalAcrossPoolSizes) {
  const Netlist nl = make_benchmark("c880");
  const std::vector<FingerprintLocation> serial = find_locations(nl);
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    LocationFinderOptions opt;
    opt.pool = &pool;
    EXPECT_TRUE(same_locations(serial, find_locations(nl, opt)))
        << threads << " threads";
  }
}

TEST(ThreadInvariance, RandomTriggerPolicyIsAlsoPoolInvariant) {
  // The kRandom policy consumes the Rng during the sequential commit
  // phase, so even it must not depend on the pool size.
  const Netlist nl = make_benchmark("c499");
  LocationFinderOptions opt;
  opt.trigger_policy = LocationFinderOptions::TriggerPolicy::kRandom;
  opt.seed = 1234;
  const std::vector<FingerprintLocation> serial = find_locations(nl, opt);
  ThreadPool pool(8);
  opt.pool = &pool;
  EXPECT_TRUE(same_locations(serial, find_locations(nl, opt)));
}

TEST(ThreadInvariance, WindowOdcBatchMatchesSerialCalls) {
  const Netlist nl = make_benchmark("c432");
  std::vector<NetId> nets;
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    if (nl.net(n).driver != kInvalidGate) nets.push_back(n);
  }
  nets.resize(std::min<std::size_t>(nets.size(), 60));
  WindowOptions opt;
  opt.depth = 2;
  ThreadPool pool(8);
  const std::vector<WindowOdcResult> batch =
      window_odc_batch(nl, nets, opt, &pool);
  ASSERT_EQ(batch.size(), nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const WindowOdcResult serial = window_odc(nl, nets[i], opt);
    EXPECT_EQ(batch[i].computed, serial.computed);
    EXPECT_EQ(batch[i].output_closed, serial.output_closed);
    EXPECT_EQ(batch[i].window_inputs, serial.window_inputs);
    EXPECT_DOUBLE_EQ(batch[i].odc_fraction, serial.odc_fraction);
  }
}

// ------------------------------------------------------ batch editions

struct BatchFixture {
  Netlist golden = make_benchmark("c880");
  StaticTimingAnalyzer sta;
  PowerAnalyzer power;
  std::vector<FingerprintLocation> locs = find_locations(golden);
  Codebook book{locs, 6, 17};
};

TEST(BatchFingerprint, EditionsEmbedTheCodebookExactly) {
  BatchFixture f;
  BatchOptions opt;
  opt.max_delay_overhead = 0;  // disabled: this test is about structure
  const BatchResult result =
      batch_fingerprint(f.golden, f.book, f.sta, f.power, opt);
  ASSERT_EQ(result.editions.size(), f.book.num_buyers());
  EXPECT_EQ(result.status, Status::kOk);
  for (std::size_t b = 0; b < result.editions.size(); ++b) {
    const BuyerEdition& e = result.editions[b];
    EXPECT_EQ(e.buyer, b);
    EXPECT_EQ(e.status, Status::kOk);
    EXPECT_EQ(e.code, f.book.code(b));
    // Designer-side extraction recovers exactly the buyer's codeword.
    EXPECT_EQ(extract_code(e.netlist, f.golden, f.locs), f.book.code(b));
    // The reported delay is a from-scratch STA of the shipped netlist.
    EXPECT_EQ(e.critical_delay, f.sta.critical_delay(e.netlist));
    EXPECT_GE(e.overheads.area_ratio, 0.0);
  }
}

TEST(BatchFingerprint, EditionsVerifyEquivalentToGolden) {
  BatchFixture f;
  BatchOptions opt;
  opt.max_delay_overhead = 0;
  const BatchResult result =
      batch_fingerprint(f.golden, f.book, f.sta, f.power, opt);
  ThreadPool pool(4);
  BatchCecOptions cec;
  cec.pool = &pool;
  const auto verdicts =
      batch_verify_equivalence(f.golden, result.editions, cec);
  ASSERT_EQ(verdicts.size(), result.editions.size());
  for (const auto& v : verdicts) {
    ASSERT_TRUE(v.ok());
    EXPECT_TRUE(v.value().equivalent());
  }
}

TEST(BatchFingerprint, ByteIdenticalAcrossThreadCounts) {
  BatchFixture f;
  BatchOptions serial_opt;
  const BatchResult serial =
      batch_fingerprint(f.golden, f.book, f.sta, f.power, serial_opt);

  std::vector<std::string> signatures;
  signatures.reserve(serial.editions.size());
  for (const BuyerEdition& e : serial.editions) {
    signatures.push_back(structural_signature(e.netlist));
  }
  const TraceResult serial_trace =
      trace_buyer(f.book, extract_code(serial.editions[2].netlist, f.golden,
                                 f.locs));

  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    BatchOptions opt;
    opt.pool = &pool;
    const BatchResult result =
        batch_fingerprint(f.golden, f.book, f.sta, f.power, opt);
    ASSERT_EQ(result.editions.size(), serial.editions.size());
    EXPECT_EQ(result.status, serial.status);
    for (std::size_t b = 0; b < result.editions.size(); ++b) {
      const BuyerEdition& e = result.editions[b];
      const BuyerEdition& s = serial.editions[b];
      EXPECT_EQ(structural_signature(e.netlist), signatures[b])
          << "buyer " << b << " at " << threads << " threads";
      EXPECT_EQ(e.code, s.code);
      EXPECT_EQ(e.seed, s.seed);
      EXPECT_EQ(e.status, s.status);
      // Bit-exact, not merely close: same clone, same edit sequence,
      // same arithmetic on every thread count.
      EXPECT_EQ(e.critical_delay, s.critical_delay);
      EXPECT_EQ(e.overheads.area_ratio, s.overheads.area_ratio);
      EXPECT_EQ(e.overheads.delay_ratio, s.overheads.delay_ratio);
      EXPECT_EQ(e.overheads.power_ratio, s.overheads.power_ratio);
    }
    // End to end: leak tracing ranks buyers identically.
    const TraceResult tr =
        trace_buyer(f.book, extract_code(result.editions[2].netlist, f.golden,
                                   f.locs));
    EXPECT_EQ(tr.ranked, serial_trace.ranked);
    EXPECT_EQ(tr.scores, serial_trace.scores);
  }
}

TEST(BatchFingerprint, DelayConstraintTagsEditionsConsistently) {
  BatchFixture f;
  BatchOptions opt;
  opt.max_delay_overhead = 1e-12;  // effectively "no slowdown allowed"
  const BatchResult result =
      batch_fingerprint(f.golden, f.book, f.sta, f.power, opt);
  bool any_infeasible = false;
  for (const BuyerEdition& e : result.editions) {
    const Status expected = e.overheads.delay_ratio > opt.max_delay_overhead
                                ? Status::kInfeasible
                                : Status::kOk;
    EXPECT_EQ(e.status, expected);
    any_infeasible |= e.status == Status::kInfeasible;
    // The codeword stays embedded either way (caller decides).
    EXPECT_EQ(extract_code(e.netlist, f.golden, f.locs), e.code);
  }
  EXPECT_TRUE(any_infeasible);  // full codewords do slow c880 down
  EXPECT_EQ(result.status, Status::kInfeasible);
}

TEST(BatchFingerprint, SpentBudgetSkipsEditionsGracefully) {
  BatchFixture f;
  CancelToken token;
  token.cancel();
  Budget dead;
  dead.with_cancel(token);
  ThreadPool pool(2);
  BatchOptions opt;
  opt.pool = &pool;
  opt.budget = &dead;
  const BatchResult result =
      batch_fingerprint(f.golden, f.book, f.sta, f.power, opt);
  EXPECT_EQ(result.status, Status::kExhausted);
  for (const BuyerEdition& e : result.editions) {
    EXPECT_EQ(e.status, Status::kExhausted);
    EXPECT_EQ(e.netlist.num_gates(), 0u);
  }
  // Verification reports the skips instead of checking empty netlists.
  const auto verdicts = batch_verify_equivalence(f.golden, result.editions);
  for (const auto& v : verdicts) {
    EXPECT_EQ(v.status(), Status::kExhausted);
    EXPECT_FALSE(v.has_value());
  }
}

TEST(BatchFingerprint, PerBuyerSeedsAreDistinctAndStable) {
  BatchFixture f;
  const BatchResult a =
      batch_fingerprint(f.golden, f.book, f.sta, f.power, {});
  const BatchResult b =
      batch_fingerprint(f.golden, f.book, f.sta, f.power, {});
  for (std::size_t i = 0; i < a.editions.size(); ++i) {
    EXPECT_EQ(a.editions[i].seed, b.editions[i].seed);
    for (std::size_t j = i + 1; j < a.editions.size(); ++j) {
      EXPECT_NE(a.editions[i].seed, a.editions[j].seed);
    }
  }
}

}  // namespace
}  // namespace odcfp
