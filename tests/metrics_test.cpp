// Histogram plane tests: log2 bucket math, pure-function quantiles,
// deterministic multi-thread merge through the telemetry shadow tree,
// zero-allocation disabled mode, and JSON round-trip. Test names
// contain "Metrics" so the TSan CI job picks them up (TELEM_HIST's
// merge path is cross-thread code).
#include "common/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/telemetry.hpp"

namespace odcfp {
namespace {

// Global operator-new instrumentation for the disabled-cost test. The
// counter is always maintained; the test reads deltas around a section.
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

using metrics::HistData;
using telemetry::Node;

TEST(MetricsBucketTest, BucketIndexMatchesBitWidth) {
  EXPECT_EQ(metrics::hist_bucket(0), 0);
  EXPECT_EQ(metrics::hist_bucket(1), 1);
  EXPECT_EQ(metrics::hist_bucket(2), 2);
  EXPECT_EQ(metrics::hist_bucket(3), 2);
  EXPECT_EQ(metrics::hist_bucket(4), 3);
  EXPECT_EQ(metrics::hist_bucket(7), 3);
  EXPECT_EQ(metrics::hist_bucket(8), 4);
  EXPECT_EQ(metrics::hist_bucket(1024), 11);
  EXPECT_EQ(metrics::hist_bucket(UINT64_MAX), 64);
}

TEST(MetricsBucketTest, BucketBoundsRoundTripEveryBucket) {
  for (int b = 0; b < metrics::kMaxHistBuckets; ++b) {
    const std::uint64_t lo = metrics::hist_bucket_min(b);
    const std::uint64_t hi = metrics::hist_bucket_max(b);
    EXPECT_LE(lo, hi) << "bucket " << b;
    EXPECT_EQ(metrics::hist_bucket(lo), b) << "bucket " << b;
    EXPECT_EQ(metrics::hist_bucket(hi), b) << "bucket " << b;
  }
  EXPECT_EQ(metrics::hist_bucket_max(64), UINT64_MAX);
}

TEST(MetricsHistTest, RecordTracksCountSumAndTrimmedBuckets) {
  HistData h;
  EXPECT_TRUE(h.empty());
  h.record(0);
  h.record(1);
  h.record(5);  // bucket 3
  h.record(5);
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.sum, 11u);
  // Trimmed: size is one past the highest nonzero bucket.
  ASSERT_EQ(h.buckets.size(), 4u);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[2], 0u);
  EXPECT_EQ(h.buckets[3], 2u);
}

TEST(MetricsHistTest, MergeIsCommutativeAssociativeAndSplitFree) {
  const std::vector<std::uint64_t> values = {0, 1, 3, 9, 9, 100, 4096,
                                             UINT64_MAX, 17, 2};
  // One histogram over all the values...
  HistData all;
  for (std::uint64_t v : values) all.record(v);

  // ...equals any split of the values merged back, in any order.
  HistData a, b, c;
  for (std::size_t i = 0; i < values.size(); ++i) {
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).record(values[i]);
  }
  HistData abc = a;
  abc.merge(b);
  abc.merge(c);
  HistData cba = c;
  cba.merge(b);
  cba.merge(a);
  HistData assoc = b;
  {
    HistData ca = c;
    ca.merge(a);
    assoc.merge(ca);
  }
  EXPECT_EQ(abc, all);
  EXPECT_EQ(cba, all);
  EXPECT_EQ(assoc, all);

  // Merging an empty histogram is the identity.
  HistData copy = all;
  copy.merge(HistData{});
  EXPECT_EQ(copy, all);
}

TEST(MetricsHistTest, QuantilesArePureFunctionsOfBuckets) {
  HistData h;
  for (int i = 0; i < 90; ++i) h.record(3);    // bucket 2, max 3
  for (int i = 0; i < 9; ++i) h.record(100);   // bucket 7, max 127
  h.record(100000);                            // bucket 17, max 131071

  EXPECT_EQ(h.quantile_permille(500), 3u);
  EXPECT_EQ(h.quantile_permille(900), 3u);
  EXPECT_EQ(h.quantile_permille(990), 127u);
  EXPECT_EQ(h.quantile_permille(1000), 131071u);
  // Clamped below and above.
  EXPECT_EQ(h.quantile_permille(0), 3u);

  const metrics::HistSummary s = metrics::summarize(h);
  EXPECT_EQ(s.p50, 3u);
  EXPECT_EQ(s.p90, 3u);
  EXPECT_EQ(s.p99, 127u);

  // A structurally identical histogram gives identical quantiles: the
  // estimator reads only (count, buckets), never hidden state.
  HistData same;
  same.count = h.count;
  same.sum = h.sum;
  same.buckets = h.buckets;
  EXPECT_EQ(same.quantile_permille(990), h.quantile_permille(990));

  EXPECT_EQ(HistData{}.quantile_permille(500), 0u);
}

TEST(MetricsHistTest, QuantileEdgeCases) {
  // Empty: every permille reads 0 (there is no sample to bound).
  const HistData empty;
  for (const unsigned q : {0u, 1u, 500u, 999u, 1000u, 5000u}) {
    EXPECT_EQ(empty.quantile_permille(q), 0u) << "q=" << q;
  }

  // Single value: every permille — including the clamped-out-of-range
  // ones — reads that sample's bucket upper bound.
  HistData one;
  one.record(42);  // bucket 6, max 63
  for (const unsigned q : {0u, 1u, 500u, 1000u, 9999u}) {
    EXPECT_EQ(one.quantile_permille(q), 63u) << "q=" << q;
  }

  // All mass in bucket 0 (the exact value 0): quantiles are 0 at every
  // rank, and the walk terminates in the first bucket rather than
  // falling through to the defensive tail.
  HistData zeros;
  for (int i = 0; i < 1000; ++i) zeros.record(0);
  EXPECT_EQ(zeros.quantile_permille(0), 0u);
  EXPECT_EQ(zeros.quantile_permille(500), 0u);
  EXPECT_EQ(zeros.quantile_permille(1000), 0u);
  EXPECT_EQ(zeros.buckets.size(), 1u);

  // Values at the top of the 64-bit range land in the last bucket and
  // report its UINT64_MAX upper bound without wrapping.
  HistData top;
  top.record(UINT64_MAX);
  top.record(UINT64_MAX - 1);
  top.record(std::uint64_t{1} << 63);          // smallest bucket-64 value
  top.record((std::uint64_t{1} << 63) - 1);    // largest bucket-63 value
  EXPECT_EQ(top.quantile_permille(1), (std::uint64_t{1} << 63) - 1);
  EXPECT_EQ(top.quantile_permille(1000), UINT64_MAX);

  // rank = ceil(count * q / 1000) must not overflow even when count
  // itself is near 2^64: a hand-built histogram carrying UINT64_MAX
  // samples in bucket 0 still walks to the right bucket. (With 64-bit
  // intermediates, count * 999 would wrap and the rank would collapse.)
  HistData huge;
  huge.count = UINT64_MAX;
  huge.sum = 0;
  huge.buckets = {UINT64_MAX};
  EXPECT_EQ(huge.quantile_permille(999), 0u);
  EXPECT_EQ(huge.quantile_permille(1000), 0u);

  // Same near-saturation count, mass split across the extremes: the
  // cumulative walk crosses from bucket 0 to bucket 64 exactly where
  // the rank says, never earlier due to wraparound.
  HistData split;
  split.count = UINT64_MAX;
  split.sum = 0;
  split.buckets.assign(65, 0);
  split.buckets[0] = UINT64_MAX - 1;
  split.buckets[64] = 1;
  EXPECT_EQ(split.quantile_permille(999), 0u);
  EXPECT_EQ(split.quantile_permille(1000), UINT64_MAX);
}

/// Fresh registry + enabled telemetry for every telemetry-facing test.
class MetricsTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::set_enabled(true);
    telemetry::flush_thread();
    telemetry::reset();
  }
  void TearDown() override {
    telemetry::flush_thread();
    telemetry::reset();
    telemetry::set_enabled(true);
  }
};

/// Recursively clears wall-clock fields, the only scheduling-dependent
/// data in the tree.
void strip_times(Node& n) {
  n.total_ns = 0;
  for (auto& [name, child] : n.children) strip_times(child);
}

/// The workload the determinism test fans out: one histogram sample per
/// item with a value that depends only on the item index.
Node run_hist_batch(int threads) {
  telemetry::flush_thread();
  telemetry::reset();
  ThreadPool pool(threads);
  {
    TELEM_SPAN("batch");
    parallel_for(&pool, 64, [&](std::size_t i) {
      TELEM_SPAN("item");
      TELEM_HIST("work.size", static_cast<std::uint64_t>(i * i));
    });
  }
  Node root = telemetry::snapshot();
  strip_times(root);
  return root;
}

TEST_F(MetricsTelemetryTest, HistMergeIsDeterministicAcrossThreadCounts) {
  const Node serial = run_hist_batch(1);
  const Node two = run_hist_batch(2);
  const Node eight = run_hist_batch(8);

  const Node* item = serial.find({"batch", "item"});
  ASSERT_NE(item, nullptr);
  const HistData* h = item->hist("work.size");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 64u);
  // Sum of i^2 for i in [0, 64).
  EXPECT_EQ(h->sum, 85344u);

  // Bit-identical trees — buckets included — at every thread count.
  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, eight);
}

TEST_F(MetricsTelemetryTest, HistTotalMergesAcrossTheSubtree) {
  {
    TELEM_SPAN("a");
    TELEM_HIST("x", 1);
    {
      TELEM_SPAN("b");
      TELEM_HIST("x", 9);
      TELEM_HIST("y", 2);
    }
  }
  TELEM_HIST("x", 100);  // at the root, outside any span
  telemetry::flush_thread();
  const Node root = telemetry::snapshot();

  const HistData total = root.hist_total("x");
  EXPECT_EQ(total.count, 3u);
  EXPECT_EQ(total.sum, 110u);
  EXPECT_EQ(root.hist_total("y").count, 1u);
  EXPECT_TRUE(root.hist_total("absent").empty());
}

TEST_F(MetricsTelemetryTest, DisabledHistsDoNotAllocateOrRecord) {
  // Warm the thread sink while enabled so the test measures steady-state
  // disabled cost, not first-touch setup.
  {
    TELEM_SPAN("warmup");
    TELEM_HIST("warm", 1);
  }
  telemetry::set_enabled(false);
  const std::uint64_t before =
      g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    TELEM_HIST("disabled_hist", static_cast<std::uint64_t>(i));
    TELEM_HIST_TIMER("disabled_timer_ns");
  }
  const std::uint64_t after =
      g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(before, after);

  telemetry::set_enabled(true);
  telemetry::flush_thread();
  const Node root = telemetry::snapshot();
  EXPECT_EQ(root.hist("disabled_hist"), nullptr);
  EXPECT_EQ(root.hist("disabled_timer_ns"), nullptr);
}

TEST_F(MetricsTelemetryTest, HistTimerRecordsElapsedNanoseconds) {
  {
    TELEM_SPAN("timed");
    TELEM_HIST_TIMER("span.elapsed_ns");
  }
  telemetry::flush_thread();
  const Node root = telemetry::snapshot();
  const Node* timed = root.find({"timed"});
  ASSERT_NE(timed, nullptr);
  const HistData* h = timed->hist("span.elapsed_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
}

TEST_F(MetricsTelemetryTest, JsonRoundTripsAndOmitsEmptyHists) {
  {
    TELEM_SPAN("plain");
    TELEM_COUNT("n", 3);
  }
  telemetry::flush_thread();
  const std::string without = telemetry::to_json(telemetry::snapshot());
  // Byte-stability for pre-histogram trees: no "hists" key appears
  // anywhere until a histogram is actually recorded.
  EXPECT_EQ(without.find("\"hists\""), std::string::npos);
  EXPECT_EQ(telemetry::parse_json(without), telemetry::snapshot());

  {
    TELEM_SPAN("plain");
    TELEM_HIST("sizes", 0);
    TELEM_HIST("sizes", 300);
  }
  telemetry::flush_thread();
  const Node root = telemetry::snapshot();
  const std::string with = telemetry::to_json(root);
  EXPECT_NE(with.find("\"hists\""), std::string::npos);
  const Node parsed = telemetry::parse_json(with);
  EXPECT_EQ(parsed, root);
  EXPECT_EQ(telemetry::to_json(parsed), with);

  const HistData* h = parsed.find({"plain"})->hist("sizes");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_EQ(h->sum, 300u);
}

}  // namespace
}  // namespace odcfp
