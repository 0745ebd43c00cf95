// Structured-logger tests: level filtering, JSONL well-formedness of
// every record, the telemetry-path join key, and atomic line appends
// under concurrency. Test names contain "Log" so the TSan CI job picks
// them up (concurrent Record destructors append to one stream).
#include "common/log.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json_lite.hpp"
#include "common/telemetry.hpp"
#include "common/trace.hpp"

namespace odcfp {
namespace {

/// Captures all records into a stringstream, at kDebug, for every test;
/// restores the process defaults afterwards.
class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    log::set_stream(&out_);
    log::set_level(log::Level::kDebug);
    telemetry::set_enabled(true);
    telemetry::flush_thread();
    telemetry::reset();
  }
  void TearDown() override {
    log::set_stream(nullptr);
    log::set_level(log::Level::kInfo);
    trace::stop();
    telemetry::set_enabled(true);
    telemetry::flush_thread();
    telemetry::reset();
  }

  std::vector<std::string> lines() const {
    std::vector<std::string> out;
    std::istringstream in(out_.str());
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) out.push_back(line);
    }
    return out;
  }

  std::ostringstream out_;
};

TEST_F(LogTest, LevelFilteringRespectsThreshold) {
  log::set_level(log::Level::kWarn);
  log::debug("d");
  log::info("i");
  log::warn("w");
  log::error("e");
  const auto emitted = lines();
  ASSERT_EQ(emitted.size(), 2u);
  EXPECT_EQ(jsonlite::parse(emitted[0]).at("level").str, "warn");
  EXPECT_EQ(jsonlite::parse(emitted[1]).at("level").str, "error");

  EXPECT_TRUE(log::enabled(log::Level::kError));
  EXPECT_FALSE(log::enabled(log::Level::kInfo));
  log::set_level(log::Level::kOff);
  EXPECT_FALSE(log::enabled(log::Level::kError));
  log::error("suppressed");
  EXPECT_EQ(lines().size(), 2u);
}

TEST_F(LogTest, RecordsAreWellFormedJsonl) {
  log::info("plain");
  log::debug("tricky")
      .field("msg", "he said \"hi\"\n\tback\\slash")
      .field("neg", std::int64_t{-5})
      .field("big", std::uint64_t{18446744073709551615ull})
      .field("ratio", 0.25)
      .field("nan", std::nan(""))
      .field("flag", true)
      .field("null_cstr", static_cast<const char*>(nullptr))
      .field("esc", "q\" b\\ n\n t\t r\r c\x01\x1f d\x7f u\xc3\xa9")
      .field("third", 1.0 / 3);

  const auto emitted = lines();
  ASSERT_EQ(emitted.size(), 2u);
  for (const std::string& line : emitted) {
    jsonlite::Value rec;
    ASSERT_NO_THROW(rec = jsonlite::parse(line)) << line;
    // Reserved keys lead every record.
    EXPECT_TRUE(rec.at("ts_ns").is_number());
    EXPECT_TRUE(rec.at("level").is_string());
    EXPECT_TRUE(rec.at("event").is_string());
    EXPECT_TRUE(rec.at("tid").is_number());
    EXPECT_TRUE(rec.at("span").is_string());
  }
  const jsonlite::Value rec = jsonlite::parse(emitted[1]);
  EXPECT_EQ(rec.at("event").str, "tricky");
  EXPECT_EQ(rec.at("msg").str, "he said \"hi\"\n\tback\\slash");
  EXPECT_EQ(rec.at("neg").number, -5.0);
  EXPECT_EQ(rec.at("ratio").number, 0.25);
  EXPECT_EQ(rec.at("nan").type, jsonlite::Value::Type::kNull);
  EXPECT_TRUE(rec.at("flag").boolean);
  EXPECT_EQ(rec.at("null_cstr").str, "");
  // The escaper's and the number writer's exact bytes: every escape
  // class, DEL and a UTF-8 sequence; 17 significant digits.
  EXPECT_NE(emitted[1].find("\"esc\":\"q\\\" b\\\\ n\\n t\\t r\\u000d "
                            "c\\u0001\\u001f d\x7f u\xc3\xa9\""),
            std::string::npos)
      << emitted[1];
  EXPECT_NE(emitted[1].find("\"third\":0.33333333333333331"),
            std::string::npos);
}

TEST_F(LogTest, SpanJoinKeyMatchesTelemetryPath) {
  // With telemetry on, and with tracing alone: the path is the one
  // recorder's span stack, which either sink keeps.
  for (const bool telemetry_on : {true, false}) {
    SCOPED_TRACE(telemetry_on);
    out_.str("");
    telemetry::set_enabled(telemetry_on);
    if (!telemetry_on) trace::start(64);
    log::info("outside");
    {
      TELEM_SPAN("a");
      {
        TELEM_SPAN("b");
        log::info("inside");
      }
    }
    trace::stop();
    const auto emitted = lines();
    ASSERT_EQ(emitted.size(), 2u);
    // The join key is the slash-joined telemetry span path — empty
    // outside any span.
    EXPECT_EQ(jsonlite::parse(emitted[0]).at("span").str, "");
    EXPECT_EQ(jsonlite::parse(emitted[1]).at("span").str, "/a/b");
  }
}

TEST_F(LogTest, RecordTidIsTheThreadsTraceTid) {
  // Two threads log and exit before the trace starts; a third logs
  // inside a span while it records.
  for (int i = 0; i < 2; ++i) {
    std::thread([] { log::info("before"); }).join();
  }
  trace::start(64);
  std::thread([] {
    TELEM_SPAN("traced");
    log::info("inside");
  }).join();
  std::ostringstream timeline;
  trace::write(timeline);
  trace::stop();

  double trace_tid = -1;
  const jsonlite::Value doc = jsonlite::parse(timeline.str());
  for (const jsonlite::Value& ev : doc.at("traceEvents").items) {
    if (ev.at("ph").str == "B" && ev.at("name").str == "traced") {
      trace_tid = ev.at("tid").number;
    }
  }
  const auto emitted = lines();
  ASSERT_EQ(emitted.size(), 3u);
  const jsonlite::Value inside = jsonlite::parse(emitted[2]);
  ASSERT_EQ(inside.at("event").str, "inside");
  EXPECT_EQ(inside.at("tid").number, trace_tid);
  // An exited thread's index goes to the next new thread: with this
  // thread and one worker alive at a time, every tid is 0 or 1 — far
  // below the stitcher's per-epoch stride (epoch*65536 + 16 + tid).
  for (const std::string& line : emitted) {
    EXPECT_LT(jsonlite::parse(line).at("tid").number, 2.0) << line;
  }
}

TEST_F(LogTest, MovedRecordEmitsExactlyOnce) {
  {
    log::Record r = log::info("moved");
    log::Record r2 = std::move(r);
    r2.field("k", 1);
  }
  EXPECT_EQ(lines().size(), 1u);
}

TEST_F(LogTest, ConcurrentLogRecordsDoNotInterleave) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        log::info("worker.tick").field("worker", t).field("i", i);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const auto emitted = lines();
  ASSERT_EQ(emitted.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  // Every line parses on its own: the per-record mutex hold means lines
  // from concurrent threads never interleave mid-record.
  int per_worker[kThreads] = {0};
  for (const std::string& line : emitted) {
    jsonlite::Value rec;
    ASSERT_NO_THROW(rec = jsonlite::parse(line)) << line;
    EXPECT_EQ(rec.at("event").str, "worker.tick");
    const int w = static_cast<int>(rec.at("worker").number);
    ASSERT_GE(w, 0);
    ASSERT_LT(w, kThreads);
    ++per_worker[w];
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(per_worker[t], kPerThread);
  }
}

}  // namespace
}  // namespace odcfp
