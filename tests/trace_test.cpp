// Trace recorder tests: Chrome trace_event JSON validity across thread
// counts, pool-worker track naming, bounded-buffer overflow accounting,
// zero-allocation disabled mode, and the budget-exhaustion instant.
// Test names contain "Trace" so the TSan CI job picks them up (workers
// publish events concurrently with the collector's flush).
#include "common/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/budget.hpp"
#include "common/json_lite.hpp"
#include "common/parallel.hpp"
#include "common/telemetry.hpp"

namespace odcfp {
namespace {

// Global operator-new instrumentation for the disabled-cost test (same
// idiom as telemetry_test; each test binary links its own override).
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

/// Tracing off and telemetry fresh around every test; the trace hooks in
/// telemetry::Span fire only while a trace is recording.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::stop();
    telemetry::set_enabled(true);
    telemetry::flush_thread();
    telemetry::reset();
  }
  void TearDown() override {
    trace::stop();
    telemetry::flush_thread();
    telemetry::reset();
  }
};

/// Asserts `root` is a structurally valid Chrome trace: a traceEvents
/// array of {name, ph, pid, tid} objects with well-formed per-phase args
/// and stack-disciplined B/E nesting per track. Returns the set of
/// thread_name metadata values.
std::set<std::string> check_chrome_trace(const jsonlite::Value& root) {
  EXPECT_TRUE(root.is_object());
  const jsonlite::Value& events = root.at("traceEvents");
  EXPECT_TRUE(events.is_array());
  std::map<double, std::vector<std::string>> be_stack;  // tid -> open Bs
  std::set<std::string> track_names;
  for (const jsonlite::Value& ev : events.items) {
    EXPECT_TRUE(ev.is_object());
    EXPECT_TRUE(ev.at("name").is_string());
    EXPECT_TRUE(ev.at("pid").is_number());
    EXPECT_TRUE(ev.at("tid").is_number());
    const std::string& ph = ev.at("ph").str;
    const double tid = ev.at("tid").number;
    if (ph == "M") {
      if (ev.at("name").str == "thread_name") {
        track_names.insert(ev.at("args").at("name").str);
      }
      continue;
    }
    EXPECT_TRUE(ev.at("ts").is_number()) << "non-metadata event needs ts";
    if (ph == "B") {
      be_stack[tid].push_back(ev.at("name").str);
    } else if (ph == "E") {
      if (be_stack[tid].empty()) {
        ADD_FAILURE() << "E '" << ev.at("name").str
                      << "' with no open B on tid " << tid;
        continue;
      }
      EXPECT_EQ(be_stack[tid].back(), ev.at("name").str);
      be_stack[tid].pop_back();
    } else if (ph == "C") {
      EXPECT_TRUE(ev.at("args").at("value").is_number());
    } else if (ph == "i") {
      EXPECT_TRUE(ev.at("s").is_string());
    } else {
      ADD_FAILURE() << "unexpected phase '" << ph << "'";
    }
  }
  for (const auto& [tid, stack] : be_stack) {
    EXPECT_TRUE(stack.empty())
        << stack.size() << " unclosed B events on tid " << tid;
  }
  return track_names;
}

/// The traced analogue of telemetry_test's instrumented batch: spans +
/// counters fanned over a pool, which re-roots its workers.
std::string run_traced_batch(int threads) {
  trace::start(std::size_t{1} << 14);
  {
    ThreadPool pool(threads);
    TELEM_SPAN("batch");
    parallel_for(&pool, 32, [&](std::size_t i) {
      TELEM_SPAN("item");
      TELEM_COUNT("items", static_cast<std::int64_t>(i % 3));
    });
  }
  std::ostringstream os;
  trace::write(os);
  trace::stop();
  return os.str();
}

TEST_F(TraceTest, EmitsValidChromeJsonAcrossThreadCounts) {
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    const std::string json = run_traced_batch(threads);
    jsonlite::Value root;
    ASSERT_NO_THROW(root = jsonlite::parse(json)) << json.substr(0, 400);
    check_chrome_trace(root);

    // The span names from the telemetry layer appear as duration events,
    // and TELEM_COUNT as counter samples carrying the charged delta.
    bool saw_batch = false, saw_item = false, saw_counter = false;
    for (const jsonlite::Value& ev : root.at("traceEvents").items) {
      const std::string& ph = ev.at("ph").str;
      if (ph == "B" && ev.at("name").str == "batch") saw_batch = true;
      if (ph == "B" && ev.at("name").str == "item") saw_item = true;
      if (ph == "C" && ev.at("name").str == "items") {
        saw_counter = true;
        EXPECT_LT(ev.at("args").at("value").number, 3.0);
      }
    }
    EXPECT_TRUE(saw_batch);
    EXPECT_TRUE(saw_item);
    EXPECT_TRUE(saw_counter);
    EXPECT_EQ(root.at("otherData").at("trace_dropped_events").str, "0");
  }
}

TEST_F(TraceTest, PoolWorkerTracksAreNamed) {
  trace::start(std::size_t{1} << 12);
  ThreadPool pool(4);  // caller + pool-worker-1..3
  const int n = pool.num_threads();
  // Barrier workload: with exactly num_threads items, each blocking until
  // all have started, every thread must claim one item — so every worker
  // deterministically emits onto its own named track.
  std::atomic<int> arrived{0};
  parallel_for(&pool, static_cast<std::size_t>(n), [&](std::size_t) {
    TELEM_SPAN("barrier.item");
    arrived.fetch_add(1, std::memory_order_acq_rel);
    while (arrived.load(std::memory_order_acquire) < n) {
      std::this_thread::yield();
    }
  });
  std::ostringstream os;
  trace::write(os);
  trace::stop();

  const jsonlite::Value root = jsonlite::parse(os.str());
  const std::set<std::string> tracks = check_chrome_trace(root);
  EXPECT_TRUE(tracks.count("pool-worker-1")) << os.str().substr(0, 400);
  EXPECT_TRUE(tracks.count("pool-worker-2"));
  EXPECT_TRUE(tracks.count("pool-worker-3"));
  // The caller's track was never named: it gets the thread-<tid> fallback.
  bool fallback = false;
  for (const std::string& t : tracks) {
    if (t.rfind("thread-", 0) == 0) fallback = true;
  }
  EXPECT_TRUE(fallback);
}

TEST_F(TraceTest, OverflowDropsNewestAndCountsThem) {
  trace::start(8);
  for (int i = 0; i < 20; ++i) {
    trace::instant("overflow.tick");
  }
  EXPECT_EQ(trace::recorded_events(), 8u);
  EXPECT_EQ(trace::dropped_events(), 12u);

  // The file is still valid JSON: the kept events are the earliest
  // prefix and the drop count is surfaced in otherData.
  std::ostringstream os;
  trace::write(os);
  const jsonlite::Value root = jsonlite::parse(os.str());
  check_chrome_trace(root);
  std::size_t ticks = 0;
  for (const jsonlite::Value& ev : root.at("traceEvents").items) {
    if (ev.at("ph").str == "i") ++ticks;
  }
  EXPECT_EQ(ticks, 8u);
  EXPECT_EQ(root.at("otherData").at("trace_dropped_events").str, "12");

  trace::stop();  // discards the buffers and the drop accounting
  EXPECT_EQ(trace::recorded_events(), 0u);
  EXPECT_EQ(trace::dropped_events(), 0u);
}

TEST_F(TraceTest, StopDiscardsAndRestartRecordsFresh) {
  trace::start(64);
  trace::instant("first");
  EXPECT_EQ(trace::recorded_events(), 1u);
  trace::stop();
  EXPECT_FALSE(trace::enabled());

  trace::start(64);
  trace::instant("second");
  EXPECT_EQ(trace::recorded_events(), 1u);
  std::ostringstream os;
  trace::write(os);
  trace::stop();
  EXPECT_NE(os.str().find("\"second\""), std::string::npos);
  EXPECT_EQ(os.str().find("\"first\""), std::string::npos);
}

TEST_F(TraceTest, DisabledModeDoesNotAllocate) {
  // Warm up: construct the recorder's globals and this thread's sink
  // once, so the loop below measures steady-state disabled cost.
  trace::start(64);
  trace::instant("warm");
  trace::stop();

  // Tracing and telemetry both off: every probe is one load.
  telemetry::set_enabled(false);
  const std::uint64_t before =
      g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    TELEM_SPAN("off.span");
    TELEM_COUNT("off.count", i);
    trace::instant("off.instant");
    trace::enabled();
  }
  const std::uint64_t after =
      g_allocations.load(std::memory_order_relaxed);
  telemetry::set_enabled(true);
  EXPECT_EQ(before, after);
}

TEST_F(TraceTest, BudgetExhaustionEmitsInstantWithSpanDetail) {
  // With telemetry on, and with tracing alone: the span stack that
  // attributes the death is the recorder's, not the telemetry tree's.
  for (const bool telemetry_on : {true, false}) {
    SCOPED_TRACE(telemetry_on);
    telemetry::set_enabled(telemetry_on);
    trace::start(std::size_t{1} << 12);
    {
      TELEM_SPAN("hot_loop");
      CancelToken token;
      Budget budget;
      budget.with_cancel(token);
      for (int poll = 1; !budget.exhausted(); ++poll) {
        if (poll == 3) token.cancel();
      }
      EXPECT_STREQ(budget.died_in(), "hot_loop");
    }
    std::ostringstream os;
    trace::write(os);
    trace::stop();

    const jsonlite::Value root = jsonlite::parse(os.str());
    check_chrome_trace(root);
    bool saw_death = false;
    for (const jsonlite::Value& ev : root.at("traceEvents").items) {
      if (ev.at("ph").str == "i" &&
          ev.at("name").str == "budget.exhausted") {
        saw_death = true;
        // args.detail carries died_in(): the timeline names the starved
        // phase exactly as Outcome::exhausted_at / the structured log do.
        EXPECT_EQ(ev.at("args").at("detail").str, "hot_loop");
      }
    }
    EXPECT_TRUE(saw_death);
  }
  telemetry::set_enabled(true);
}

TEST_F(TraceTest, WriteFileProducesLoadableJson) {
  trace::start(64);
  trace::instant("filed");
  const std::string path =
      ::testing::TempDir() + "/odcfp_trace_test.json";
  ASSERT_TRUE(trace::write_file(path));
  trace::stop();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const jsonlite::Value root = jsonlite::parse(buf.str());
  check_chrome_trace(root);
  EXPECT_FALSE(trace::write_file("/nonexistent-dir/trace.json"));
}

}  // namespace
}  // namespace odcfp
