#include "common/trace.hpp"

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "common/atomic_io.hpp"
#include "common/clock.hpp"
#include "common/json_lite.hpp"
#include "common/log.hpp"
#include "common/record_log.hpp"
#include "common/recorder.hpp"

// The recording side (enabled, instant, set_thread_name and the per-thread
// buffers) is the one recorder's, common/recorder.cpp; this file holds a
// trace's lifetime, its durability and its file format. The trace state
// lives in recorder::Shared, under its one mutex.

namespace odcfp::trace {

namespace {

bool reserved_meta_key(const std::string& key) {
  return key.rfind("trace_", 0) == 0 || key.rfind("clock_", 0) == 0;
}

/// Renders and atomically publishes the armed file. `quiet` suppresses
/// the per-write info record — heartbeat-cadence flushes would otherwise
/// dominate the structured log.
bool write_path(const std::string& path, bool quiet) {
  // Render to memory, publish atomically: a timeline consumer (or an
  // artifact-uploading CI step racing an exit flush) never sees a
  // half-written JSON file at the final path.
  std::ostringstream os;
  write(os);
  const atomic_io::WriteResult written =
      atomic_io::write_file_atomic(path, os.str());
  if (!written.ok) {
    log::error("trace.write_failed")
        .field("path", path)
        .field("error", written.error);
    return false;
  }
  if (!quiet) {
    log::info("trace.written")
        .field("path", path)
        .field("events", static_cast<std::int64_t>(recorded_events()))
        .field("dropped", static_cast<std::int64_t>(dropped_events()));
  }
  return true;
}

/// Atomically rewrites the armed file with everything published so far.
/// The exit flush (`last`) also disarms, so later flushes are no-ops,
/// and logs the write.
bool flush_armed(bool last) {
  recorder::Shared& s = recorder::shared();
  std::string path;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    path = last ? std::exchange(s.armed_path, {}) : s.armed_path;
  }
  if (path.empty()) return false;
  // Count first so the file being written already reports this flush —
  // a reader of a crash-survived file sees how many rewrites it is into
  // the run, i.e. how stale its tail can be (one heartbeat interval).
  s.flushes.fetch_add(1, std::memory_order_relaxed);
  return write_path(path, /*quiet=*/!last);
}

void exit_flush() { flush_armed(/*last=*/true); }

/// The u64 `text` spells; anything else marks the file unparsed.
std::uint64_t u64(std::string_view text) {
  std::uint64_t value = 0;
  if (!record_log::parse_u64(text, &value)) {
    throw std::runtime_error("not a u64: " + std::string(text));
  }
  return value;
}

/// Chrome ts ("<us>.<frac>") back to integral nanoseconds. The writer
/// always prints exactly three fraction digits, but tolerate fewer/more
/// (pad or truncate) so a hand-edited trace still lands near the truth.
/// A negative, non-decimal or overflowing ts marks the file unparsed.
std::uint64_t ts_raw_to_ns(const std::string& raw) {
  const std::size_t dot = raw.find('.');
  const std::uint64_t us = u64(std::string_view(raw).substr(0, dot));
  std::uint64_t frac = 0;
  if (dot != std::string::npos) {
    std::string digits = raw.substr(dot + 1);
    if (digits.find_first_not_of("0123456789") != std::string::npos) {
      throw std::runtime_error("ts fraction is not decimal: " + raw);
    }
    digits.resize(3, '0');
    frac = u64(digits);
  }
  if (us > (UINT64_MAX - frac) / 1000) {
    throw std::runtime_error("ts overflows: " + raw);
  }
  return us * 1000 + frac;
}

/// The i64 a JSON number spells exactly; anything else marks the file
/// unparsed.
std::int64_t i64(const jsonlite::Value& v) {
  std::int64_t value = 0;
  const char* end = v.raw.data() + v.raw.size();
  const auto [ptr, ec] = std::from_chars(v.raw.data(), end, value);
  if (!v.is_number() || ec != std::errc{} || ptr != end) {
    throw std::runtime_error("not an i64: " + v.raw);
  }
  return value;
}

}  // namespace

void start(std::size_t per_thread_limit) {
  // Reads the enabled word without applying config(): configure() calls
  // this for ODCFP_TRACE, and leaves the timeline bit alone.
  recorder::Shared& s = recorder::shared();
  std::lock_guard<std::mutex> lock(s.mu);
  if ((recorder::g_sinks.load(std::memory_order_relaxed) &
       recorder::kTimeline) != 0) {
    return;
  }
  s.tracks.clear();
  s.limit = per_thread_limit > 0 ? per_thread_limit
                                 : recorder::config().trace_limit;
  s.origin_ns.store(clocks::steady_now_ns(), std::memory_order_relaxed);
  s.flushes.store(0, std::memory_order_relaxed);
  s.label = "odcfp";
  s.meta.clear();
  s.epoch.fetch_add(1, std::memory_order_release);
  recorder::g_sinks.fetch_or(recorder::kTimeline, std::memory_order_release);
}

void stop() {
  recorder::Shared& s = recorder::shared();
  std::lock_guard<std::mutex> lock(s.mu);
  recorder::g_sinks.fetch_and(~recorder::kTimeline,
                              std::memory_order_release);
  s.tracks.clear();
}

std::uint64_t dropped_events() {
  recorder::Shared& s = recorder::shared();
  std::lock_guard<std::mutex> lock(s.mu);
  std::uint64_t total = 0;
  for (const recorder::Track& track : s.tracks) {
    total += track.buffer->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t recorded_events() {
  recorder::Shared& s = recorder::shared();
  std::lock_guard<std::mutex> lock(s.mu);
  std::uint64_t total = 0;
  for (const recorder::Track& track : s.tracks) {
    total += track.buffer->size.load(std::memory_order_acquire);
  }
  return total;
}

void set_process_label(const char* label) {
  recorder::Shared& s = recorder::shared();
  std::lock_guard<std::mutex> lock(s.mu);
  s.label = std::string_view(label).substr(0, 47);
}

void set_meta(const std::string& key, const std::string& value) {
  if (key.empty() || reserved_meta_key(key)) return;
  recorder::Shared& s = recorder::shared();
  std::lock_guard<std::mutex> lock(s.mu);
  s.meta[key] = value;
}

void arm_file(const std::string& path) {
  recorder::Shared& s = recorder::shared();
  std::lock_guard<std::mutex> lock(s.mu);
  s.armed_path = path;
  [[maybe_unused]] static const int registered = std::atexit(exit_flush);
}

void disarm() {
  recorder::Shared& s = recorder::shared();
  std::lock_guard<std::mutex> lock(s.mu);
  s.armed_path.clear();
}

bool armed() {
  recorder::Shared& s = recorder::shared();
  std::lock_guard<std::mutex> lock(s.mu);
  return !s.armed_path.empty();
}

bool flush() { return flush_armed(/*last=*/false); }

std::uint64_t flush_count() {
  return recorder::shared().flushes.load(std::memory_order_relaxed);
}

void write(std::ostream& os) {
  // Pair the trace's steady-clock origin with the process anchor before
  // taking the recorder's mutex (process_anchor() is lazily sampled).
  const clocks::ClockAnchor& anchor = clocks::process_anchor();
  recorder::Shared& s = recorder::shared();
  std::vector<recorder::Track> tracks;
  // otherData: one sorted map so the rendering is deterministic and
  // user meta can never split the fixed keys.
  std::map<std::string, std::string> other;
  std::string label;
  std::size_t limit = 0;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    tracks = s.tracks;
    other = s.meta;
    label = s.label;
    limit = s.limit;
  }
  const std::uint64_t origin = s.origin_ns.load(std::memory_order_relaxed);
  std::uint64_t dropped = 0;
  ChromeWriter out(os);
  out.name("process_name", 1, 0, label);
  for (const recorder::Track& track : tracks) {
    out.name("thread_name", 1, track.tid,
             track.name.empty() ? "thread-" + std::to_string(track.tid)
                                : track.name);
    const std::size_t n = track.buffer->size.load(std::memory_order_acquire);
    dropped += track.buffer->dropped.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
      const recorder::Event& ev = track.buffer->events[i];
      out.recorded(ev.name, ev.ph, 1, track.tid, ev.ts_ns, ev.value,
                   ev.detail);
    }
  }
  other["clock_anchor_steady_ns"] = std::to_string(anchor.steady_ns);
  other["clock_anchor_wall_ns"] = std::to_string(anchor.wall_ns);
  other["trace_origin_steady_ns"] = std::to_string(origin);
  other["trace_origin_wall_ns"] =
      std::to_string(clocks::wall_from_steady(origin));
  other["trace_dropped_events"] = std::to_string(dropped);
  other["trace_event_limit_per_thread"] = std::to_string(limit);
  other["trace_flushes"] =
      std::to_string(s.flushes.load(std::memory_order_relaxed));
  out.finish(other);
}

bool write_file(const std::string& path) {
  return write_path(path, /*quiet=*/false);
}

// ---- the file format ----

ChromeWriter::ChromeWriter(std::ostream& os) : os_(os) {
  os_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
}

ChromeWriter& ChromeWriter::event(std::string_view name, char ph,
                                  std::uint64_t pid, std::uint64_t tid) {
  if (events_++ != 0) os_ << (in_args_ ? "}}" : "}") << ",\n";
  in_args_ = false;
  os_ << "{\"name\":" << jsonlite::quote(name) << ",\"ph\":\"" << ph
      << "\",\"pid\":" << pid << ",\"tid\":" << tid;
  return *this;
}

ChromeWriter& ChromeWriter::time(const char* key, std::uint64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), ",\"%s\":%llu.%03llu", key,
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  os_ << buf;
  return *this;
}

ChromeWriter& ChromeWriter::thread_scope() {
  os_ << ",\"s\":\"t\"";
  return *this;
}

ChromeWriter& ChromeWriter::arg(const char* key, std::int64_t value) {
  return arg_json(key, std::to_string(value));
}

ChromeWriter& ChromeWriter::arg(const char* key, std::uint64_t value) {
  return arg_json(key, std::to_string(value));
}

ChromeWriter& ChromeWriter::arg(const char* key, std::string_view value) {
  return arg_json(key, jsonlite::quote(value));
}

ChromeWriter& ChromeWriter::arg_json(const char* key,
                                     const std::string& json) {
  os_ << (in_args_ ? "," : ",\"args\":{") << jsonlite::quote(key) << ':'
      << json;
  in_args_ = true;
  return *this;
}

void ChromeWriter::name(const char* kind, std::uint64_t pid,
                        std::uint64_t tid, std::string_view name) {
  event(kind, 'M', pid, tid).arg("name", name);
}

void ChromeWriter::recorded(std::string_view name, char ph,
                            std::uint64_t pid, std::uint64_t tid,
                            std::uint64_t ts_ns, std::int64_t value,
                            const char* detail) {
  event(name, ph, pid, tid).time("ts", ts_ns);
  if (ph == 'C') {
    arg("value", value);
  } else if (ph == 'i') {
    thread_scope();
    if (detail != nullptr) arg("detail", detail);
  }
}

void ChromeWriter::finish(
    const std::map<std::string, std::string>& other_data) {
  if (events_ != 0) os_ << (in_args_ ? "}}" : "}");
  // All otherData values are strings: a u64 would lose precision as a
  // JSON double in lenient parsers.
  os_ << "\n],\"otherData\":{";
  bool first = true;
  for (const auto& [key, value] : other_data) {
    if (!first) os_ << ',';
    first = false;
    os_ << jsonlite::quote(key) << ':' << jsonlite::quote(value);
  }
  os_ << "}}\n";
}

TraceFile read_file(const std::string& path) {
  TraceFile t;
  std::string bytes;
  if (!atomic_io::read_file(path, &bytes)) return t;
  t.present = true;
  try {
    const jsonlite::Value doc = jsonlite::parse(bytes);
    const jsonlite::Value& events = doc.at("traceEvents");
    if (!events.is_array()) return t;
    for (const jsonlite::Value& ev : events.items) {
      const std::string& ph = ev.at("ph").str;
      const std::string& name = ev.at("name").str;
      if (ph == "M") {
        if (name == "process_name") {
          t.process_label = ev.at("args").at("name").str;
        } else if (name == "thread_name") {
          t.thread_names.emplace_back(u64(ev.at("tid").raw),
                                      ev.at("args").at("name").str);
        }
        continue;
      }
      TraceFile::Event out;
      out.name = name;
      out.ph = ph.empty() ? 'i' : ph[0];
      out.tid = u64(ev.at("tid").raw);
      out.rel_ns = ts_raw_to_ns(ev.at("ts").raw);
      if (out.ph == 'C') {
        out.value = i64(ev.at("args").at("value"));
      } else if (out.ph == 'i' && ev.has("args")) {
        const jsonlite::Value& args = ev.at("args");
        if (args.has("detail")) out.detail = args.at("detail").str;
      }
      t.events.push_back(std::move(out));
    }
    if (doc.has("otherData")) {
      const jsonlite::Value& other = doc.at("otherData");
      if (other.has("trace_origin_wall_ns")) {
        t.origin_wall_ns = u64(other.at("trace_origin_wall_ns").str);
      }
      t.have_anchor = other.has("clock_anchor_wall_ns") &&
                      t.origin_wall_ns != 0;
      if (other.has("trace_dropped_events")) {
        t.dropped = u64(other.at("trace_dropped_events").str);
      }
      if (other.has("trace_flushes")) {
        t.flushes = u64(other.at("trace_flushes").str);
      }
    }
    t.parsed = true;
  } catch (const std::exception&) {
    // Present but unreadable (torn by a non-atomic writer, truncated by
    // the filesystem, hand-damaged, a number out of its field's range):
    // reported as not parsed, never fatal.
    t.events.clear();
    t.thread_names.clear();
    t.parsed = false;
  }
  return t;
}

}  // namespace odcfp::trace
