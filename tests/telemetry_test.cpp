// Telemetry registry tests: span nesting, deterministic multi-thread
// merge, zero-allocation disabled mode, JSON round-trip, and budget
// death attribution. Test names contain "Telemetry" so the TSan CI job
// picks them up (the merge path is the only cross-thread code).
#include "common/telemetry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <thread>

#include "common/budget.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"

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

using telemetry::Node;

/// Fresh registry + enabled telemetry for every test.
class TelemetryTest : public ::testing::Test {
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

/// Recursively clears wall-clock fields, which are the only
/// scheduling-dependent data in the tree.
void strip_times(Node& n) {
  n.total_ns = 0;
  for (auto& [name, child] : n.children) strip_times(child);
}

TEST_F(TelemetryTest, SpanNestingBuildsPathTree) {
  {
    TELEM_SPAN("outer");
    TELEM_COUNT("outer_events", 2);
    {
      TELEM_SPAN("inner");
      TELEM_COUNT("inner_events", 1);
      TELEM_COUNT("inner_events", 4);
    }
    {
      TELEM_SPAN("inner");
    }
  }
  const Node root = telemetry::snapshot();
  const Node* outer = root.find({"outer"});
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_EQ(outer->counter("outer_events"), 2);
  const Node* inner = root.find({"outer", "inner"});
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 2u);  // two instances aggregate into one node
  EXPECT_EQ(inner->counter("inner_events"), 5);
  EXPECT_EQ(root.find({"inner"}), nullptr);  // only reachable via outer
}

TEST_F(TelemetryTest, CounterOutsideSpanChargesRoot) {
  TELEM_COUNT("orphan", 7);
  telemetry::flush_thread();
  const Node root = telemetry::snapshot();
  EXPECT_EQ(root.counter("orphan"), 7);
  EXPECT_TRUE(root.children.empty());
}

TEST_F(TelemetryTest, CurrentSpanNameTracksInnermost) {
  EXPECT_EQ(telemetry::current_span_name(), nullptr);
  {
    TELEM_SPAN("a");
    EXPECT_STREQ(telemetry::current_span_name(), "a");
    {
      TELEM_SPAN("b");
      EXPECT_STREQ(telemetry::current_span_name(), "b");
      const auto path = telemetry::current_path();
      ASSERT_EQ(path.size(), 2u);
      EXPECT_STREQ(path[0], "a");
      EXPECT_STREQ(path[1], "b");
    }
    EXPECT_STREQ(telemetry::current_span_name(), "a");
  }
  EXPECT_EQ(telemetry::current_span_name(), nullptr);
}

TEST_F(TelemetryTest, AttachScopeReRootsWorkerThread) {
  std::vector<const char*> path;
  {
    TELEM_SPAN("phase");
    path = telemetry::current_path();
    std::thread worker([&path] {
      const telemetry::AttachScope attach(path);
      TELEM_SPAN("item");
      TELEM_COUNT("work", 3);
    });
    worker.join();
  }
  const Node root = telemetry::snapshot();
  const Node* item = root.find({"phase", "item"});
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(item->count, 1u);
  EXPECT_EQ(item->counter("work"), 3);
  // The attach frames are structural: they contribute no extra count to
  // the phase node beyond its own single instance.
  EXPECT_EQ(root.find({"phase"})->count, 1u);
}

/// The workload the determinism test fans out: nested spans + counters
/// per item, which the pool re-roots under the caller's phase span.
Node run_instrumented_batch(int threads) {
  telemetry::flush_thread();
  telemetry::reset();
  ThreadPool pool(threads);
  {
    TELEM_SPAN("batch");
    parallel_for(&pool, 64, [&](std::size_t i) {
      TELEM_SPAN("item");
      TELEM_COUNT("items", 1);
      if (i % 2 == 0) {
        TELEM_SPAN("even");
        TELEM_COUNT("evens", static_cast<std::int64_t>(i));
      }
    });
  }
  Node root = telemetry::snapshot();
  strip_times(root);
  return root;
}

TEST_F(TelemetryTest, MergeIsDeterministicAcrossThreadCounts) {
  const Node serial = run_instrumented_batch(1);
  const Node two = run_instrumented_batch(2);
  const Node eight = run_instrumented_batch(8);

  ASSERT_NE(serial.find({"batch", "item"}), nullptr);
  EXPECT_EQ(serial.find({"batch", "item"})->count, 64u);
  EXPECT_EQ(serial.find({"batch", "item"})->counter("items"), 64);
  ASSERT_NE(serial.find({"batch", "item", "even"}), nullptr);
  // Sum of even i in [0, 64).
  EXPECT_EQ(serial.find({"batch", "item", "even"})->counter("evens"), 992);

  // Same structure, counts, and counters for every thread count; only
  // wall-clock (stripped above) may differ.
  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, eight);
}

TEST_F(TelemetryTest, DisabledModeDoesNotAllocate) {
  // Warm the thread sink while enabled so the test measures steady-state
  // disabled cost, not first-touch setup.
  {
    TELEM_SPAN("warmup");
    TELEM_COUNT("warm", 1);
  }
  telemetry::set_enabled(false);
  const std::uint64_t before =
      g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    TELEM_SPAN("disabled_span");
    TELEM_COUNT("disabled_count", i);
    telemetry::current_span_name();
  }
  const std::uint64_t after =
      g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(before, after);

  telemetry::set_enabled(true);
  telemetry::flush_thread();
  const Node root = telemetry::snapshot();
  EXPECT_EQ(root.find({"disabled_span"}), nullptr);
  EXPECT_EQ(root.counter("disabled_count"), 0);
}

TEST_F(TelemetryTest, JsonExportRoundTrips) {
  {
    TELEM_SPAN("a");
    TELEM_COUNT("n \"quoted\"", 3);
    {
      TELEM_SPAN("b");
      TELEM_COUNT("neg", -17);
    }
  }
  {
    TELEM_SPAN("c");
    // Every escape class, DEL and a UTF-8 sequence.
    TELEM_COUNT("q\" b\\ n\n t\t r\r c\x01\x1f d\x7f u\xc3\xa9", 1);
  }
  const Node root = telemetry::snapshot();
  const std::string json = telemetry::to_json(root);
  const Node parsed = telemetry::parse_json(json);
  EXPECT_EQ(parsed, root);
  // Serialization is deterministic: serialize → parse → serialize is a
  // fixed point.
  EXPECT_EQ(telemetry::to_json(parsed), json);
  // The escaper's exact bytes.
  EXPECT_NE(json.find("\"q\\\" b\\\\ n\\n t\\t r\\u000d c\\u0001\\u001f "
                      "d\x7f u\xc3\xa9\":1"),
            std::string::npos)
      << json;

  std::ostringstream tree;
  telemetry::dump_tree(tree, root);
  EXPECT_NE(tree.str().find("a"), std::string::npos);
}

TEST_F(TelemetryTest, ParseJsonRejectsMalformedInput) {
  EXPECT_THROW(telemetry::parse_json("not json"), CheckError);
  EXPECT_THROW(telemetry::parse_json("{\"count\": }"), CheckError);
  EXPECT_THROW(telemetry::parse_json(""), CheckError);
  // Hostile bytes get the typed error too: a count past 2^64-1, and
  // nesting far past the reader's depth bound.
  EXPECT_THROW(
      telemetry::parse_json("{\"count\":99999999999999999999999,"
                            "\"total_ns\":0,\"counters\":{},"
                            "\"children\":{}}"),
      CheckError);
  std::string deep;
  for (int i = 0; i < 100'000; ++i) deep += "{\"children\":{\"a\":";
  EXPECT_THROW(telemetry::parse_json(deep), CheckError);
}

TEST_F(TelemetryTest, BudgetDeathIsAttributedToInnermostSpan) {
  CancelToken token;
  Budget budget;
  budget.with_cancel(token);
  EXPECT_EQ(budget.died_in(), nullptr);
  {
    TELEM_SPAN("hot_loop");
    for (int poll = 1; !budget.exhausted(); ++poll) {
      if (poll == 3) token.cancel();
    }
  }
  ASSERT_NE(budget.died_in(), nullptr);
  EXPECT_STREQ(budget.died_in(), "hot_loop");

  // First observation wins: a later check outside the span does not
  // overwrite the attribution.
  EXPECT_TRUE(budget.exhausted());
  EXPECT_STREQ(budget.died_in(), "hot_loop");
}

TEST_F(TelemetryTest, BudgetDeathOutsideSpansRecordsEmptyName) {
  CancelToken token;
  token.cancel();
  Budget budget;
  budget.with_cancel(token);
  EXPECT_TRUE(budget.exhausted());
  ASSERT_NE(budget.died_in(), nullptr);
  EXPECT_STREQ(budget.died_in(), "");
}

TEST_F(TelemetryTest, ResetClearsMergedData) {
  {
    TELEM_SPAN("gone");
  }
  telemetry::reset();
  const Node root = telemetry::snapshot();
  EXPECT_TRUE(root.children.empty());
  EXPECT_TRUE(root.counters.empty());
}

}  // namespace
}  // namespace odcfp
