#include "common/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/atomic_io.hpp"
#include "common/clock.hpp"
#include "common/json_lite.hpp"
#include "common/log.hpp"

namespace odcfp::trace {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kDefaultLimit = std::size_t{1} << 18;  // 256Ki

/// One recorded event. POD so buffer slots can be rewritten across
/// start() epochs without destructor ceremony; both pointers must have
/// static storage duration (span-name / fault-site literals).
struct Event {
  const char* name = nullptr;
  const char* detail = nullptr;
  std::uint64_t ts_ns = 0;
  std::int64_t value = 0;
  char ph = 'i';  ///< Chrome phase: B, E, C or i.
};

/// Per-thread buffer. The owner thread is the only writer: it fills slot
/// `size_` then publishes with a release store, so a collector reading
/// size with acquire sees fully written events — the only cross-thread
/// protocol, making the hot path lock-free. Storage is preallocated to
/// `events.size()` and never reallocated while registered.
struct Sink {
  explicit Sink(std::size_t limit) : events(limit) {}

  std::vector<Event> events;
  std::atomic<std::size_t> size{0};
  std::atomic<std::uint64_t> dropped{0};
  char name[48] = {0};
  std::atomic<bool> has_name{false};
  std::uint64_t tid = 0;
};

struct Global {
  std::atomic<bool> enabled{false};
  /// Bumped on every start(); thread-local sink caches re-register when
  /// their cached epoch goes stale (handles stop()+start() cycles).
  std::atomic<std::uint64_t> epoch{0};
  std::mutex mu;  ///< Guards sinks / next_tid / limit / arm bookkeeping.
  std::vector<std::shared_ptr<Sink>> sinks;
  std::uint64_t next_tid = 0;
  std::size_t limit = kDefaultLimit;
  Clock::time_point origin{};
  /// The origin on the anchor's steady epoch — pairs every event's
  /// relative ts_ns with the process clock anchor in otherData.
  std::uint64_t origin_steady_ns = 0;
  std::string armed_path;  ///< Flush destination; empty = disarmed.
  bool atexit_registered = false;
  std::atomic<std::uint64_t> flushes{0};
  char label[48] = "odcfp";  ///< process_name metadata.
  std::map<std::string, std::string> meta;  ///< Extra otherData entries.
};

void exit_flush();

/// Leaked on purpose: the armed-path atexit flush and thread-local sink
/// destructors may run during static destruction, after a non-leaked
/// instance would already be gone.
Global& g() {
  static Global* instance = [] {
    Global* G = new Global();
    const char* path = std::getenv("ODCFP_TRACE");
    if (path != nullptr && *path != '\0') {
      G->armed_path = path;
      if (const char* lim = std::getenv("ODCFP_TRACE_LIMIT")) {
        const long long v = std::atoll(lim);
        if (v > 0) G->limit = static_cast<std::size_t>(v);
      }
      G->origin = Clock::now();
      G->origin_steady_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              G->origin.time_since_epoch())
              .count());
      G->epoch.store(1, std::memory_order_release);
      G->enabled.store(true, std::memory_order_release);
      G->atexit_registered = true;
      std::atexit(exit_flush);
    }
    return G;
  }();
  return *instance;
}

/// Sticky per-thread track name, independent of any live trace so pool
/// workers can name themselves once at spawn, before tracing starts.
char* pending_name() {
  thread_local char name[48] = {0};
  return name;
}

struct TlsRef {
  std::shared_ptr<Sink> sink;
  std::uint64_t epoch = 0;
};

Sink& tls_sink() {
  thread_local TlsRef ref;
  Global& G = g();
  const std::uint64_t e = G.epoch.load(std::memory_order_acquire);
  if (ref.epoch != e || ref.sink == nullptr) {
    std::lock_guard<std::mutex> lock(G.mu);
    auto sink = std::make_shared<Sink>(G.limit);
    sink->tid = G.next_tid++;
    if (pending_name()[0] != '\0') {
      std::strncpy(sink->name, pending_name(), sizeof(sink->name) - 1);
      sink->has_name.store(true, std::memory_order_release);
    }
    G.sinks.push_back(sink);
    ref.sink = std::move(sink);
    ref.epoch = e;
  }
  return *ref.sink;
}

void emit(char ph, const char* name, const char* detail,
          std::int64_t value) {
  Global& G = g();
  if (!G.enabled.load(std::memory_order_relaxed)) return;
  Sink& s = tls_sink();
  const std::size_t i = s.size.load(std::memory_order_relaxed);
  if (i >= s.events.size()) {
    s.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Event& ev = s.events[i];
  ev.name = name;
  ev.detail = detail;
  ev.ts_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           G.origin)
          .count());
  ev.value = value;
  ev.ph = ph;
  s.size.store(i + 1, std::memory_order_release);
}

std::uint64_t parse_u64(const std::string& text) {
  return std::strtoull(text.c_str(), nullptr, 10);
}

/// Chrome ts ("<us>.<frac>") back to integral nanoseconds. The writer
/// always prints exactly three fraction digits, but tolerate fewer/more
/// (pad or truncate) so a hand-edited trace still lands near the truth.
std::uint64_t ts_raw_to_ns(const std::string& raw) {
  const std::size_t dot = raw.find('.');
  const std::uint64_t us = parse_u64(raw.substr(0, dot));
  std::uint64_t frac = 0;
  if (dot != std::string::npos) {
    std::string digits = raw.substr(dot + 1);
    digits.resize(3, '0');
    frac = parse_u64(digits);
  }
  return us * 1000 + frac;
}

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

void exit_flush() {
  Global& G = g();
  std::string path;
  {
    std::lock_guard<std::mutex> lock(G.mu);
    path.swap(G.armed_path);  // one shot; later flush() calls are no-ops
  }
  if (path.empty()) return;
  G.flushes.fetch_add(1, std::memory_order_relaxed);
  write_path(path, /*quiet=*/false);
}

}  // namespace

bool enabled() {
  return g().enabled.load(std::memory_order_relaxed);
}

void start(std::size_t per_thread_limit) {
  Global& G = g();
  std::lock_guard<std::mutex> lock(G.mu);
  if (G.enabled.load(std::memory_order_relaxed)) return;
  if (per_thread_limit > 0) {
    G.limit = per_thread_limit;
  } else if (const char* lim = std::getenv("ODCFP_TRACE_LIMIT")) {
    const long long v = std::atoll(lim);
    if (v > 0) G.limit = static_cast<std::size_t>(v);
  }
  G.sinks.clear();
  G.next_tid = 0;
  G.origin = Clock::now();
  G.origin_steady_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          G.origin.time_since_epoch())
          .count());
  G.flushes.store(0, std::memory_order_relaxed);
  std::strcpy(G.label, "odcfp");
  G.meta.clear();
  G.epoch.fetch_add(1, std::memory_order_release);
  G.enabled.store(true, std::memory_order_release);
}

void stop() {
  Global& G = g();
  std::lock_guard<std::mutex> lock(G.mu);
  G.enabled.store(false, std::memory_order_release);
  G.sinks.clear();
  G.next_tid = 0;
}

std::uint64_t dropped_events() {
  Global& G = g();
  std::lock_guard<std::mutex> lock(G.mu);
  std::uint64_t total = 0;
  for (const auto& s : G.sinks) {
    total += s->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t recorded_events() {
  Global& G = g();
  std::lock_guard<std::mutex> lock(G.mu);
  std::uint64_t total = 0;
  for (const auto& s : G.sinks) {
    total += s->size.load(std::memory_order_acquire);
  }
  return total;
}

void set_thread_name(const char* name) {
  std::strncpy(pending_name(), name, 47);
  pending_name()[47] = '\0';
  if (enabled()) {
    Sink& s = tls_sink();
    std::strncpy(s.name, pending_name(), sizeof(s.name) - 1);
    s.has_name.store(true, std::memory_order_release);
  }
}

void set_process_label(const char* label) {
  Global& G = g();
  std::lock_guard<std::mutex> lock(G.mu);
  std::strncpy(G.label, label, sizeof(G.label) - 1);
  G.label[sizeof(G.label) - 1] = '\0';
}

void set_meta(const std::string& key, const std::string& value) {
  if (key.empty() || reserved_meta_key(key)) return;
  Global& G = g();
  std::lock_guard<std::mutex> lock(G.mu);
  G.meta[key] = value;
}

void arm_file(const std::string& path) {
  Global& G = g();
  std::lock_guard<std::mutex> lock(G.mu);
  G.armed_path = path;
  if (!G.atexit_registered) {
    G.atexit_registered = true;
    std::atexit(exit_flush);
  }
}

void disarm() {
  Global& G = g();
  std::lock_guard<std::mutex> lock(G.mu);
  G.armed_path.clear();
}

bool armed() {
  Global& G = g();
  std::lock_guard<std::mutex> lock(G.mu);
  return !G.armed_path.empty();
}

bool flush() {
  Global& G = g();
  std::string path;
  {
    std::lock_guard<std::mutex> lock(G.mu);
    path = G.armed_path;
  }
  if (path.empty()) return false;
  // Count first so the file being written already reports this flush —
  // a reader of a crash-survived file sees how many rewrites it is into
  // the run, i.e. how stale its tail can be (one heartbeat interval).
  G.flushes.fetch_add(1, std::memory_order_relaxed);
  return write_path(path, /*quiet=*/true);
}

std::uint64_t flush_count() {
  return g().flushes.load(std::memory_order_relaxed);
}

void begin(const char* name) { emit('B', name, nullptr, 0); }
void end(const char* name) { emit('E', name, nullptr, 0); }
void counter(const char* name, std::int64_t value) {
  emit('C', name, nullptr, value);
}
void instant(const char* name, const char* detail) {
  emit('i', name, detail, 0);
}

void write(std::ostream& os) {
  Global& G = g();
  // Pair the trace's steady-clock origin with the process anchor before
  // taking the trace mutex (process_anchor() is itself lazily sampled).
  const std::uint64_t origin_wall =
      clocks::wall_from_steady(G.origin_steady_ns);
  const clocks::ClockAnchor& anchor = clocks::process_anchor();
  std::lock_guard<std::mutex> lock(G.mu);
  // Sinks register in first-event order, so the vector is already sorted
  // by tid; one pass emits name metadata then each track's events.
  std::uint64_t dropped = 0;
  ChromeWriter out(os);
  out.name("process_name", 1, 0, G.label);
  for (const auto& sink : G.sinks) {
    const std::uint64_t tid = sink->tid;
    out.name("thread_name", 1, tid,
             sink->has_name.load(std::memory_order_acquire)
                 ? std::string(sink->name)
                 : "thread-" + std::to_string(tid));
    const std::size_t n = sink->size.load(std::memory_order_acquire);
    dropped += sink->dropped.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
      const Event& ev = sink->events[i];
      out.recorded(ev.name, ev.ph, 1, tid, ev.ts_ns, ev.value, ev.detail);
    }
  }
  // otherData: one sorted map so the rendering is deterministic and
  // user meta can never split the fixed keys.
  std::map<std::string, std::string> other = G.meta;
  other["clock_anchor_steady_ns"] = std::to_string(anchor.steady_ns);
  other["clock_anchor_wall_ns"] = std::to_string(anchor.wall_ns);
  other["trace_origin_steady_ns"] = std::to_string(G.origin_steady_ns);
  other["trace_origin_wall_ns"] = std::to_string(origin_wall);
  other["trace_dropped_events"] = std::to_string(dropped);
  other["trace_event_limit_per_thread"] = std::to_string(G.limit);
  other["trace_flushes"] =
      std::to_string(G.flushes.load(std::memory_order_relaxed));
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
          t.thread_names.emplace_back(parse_u64(ev.at("tid").raw),
                                      ev.at("args").at("name").str);
        }
        continue;
      }
      TraceFile::Event out;
      out.name = name;
      out.ph = ph.empty() ? 'i' : ph[0];
      out.tid = parse_u64(ev.at("tid").raw);
      out.rel_ns = ts_raw_to_ns(ev.at("ts").raw);
      if (out.ph == 'C') {
        out.value = std::strtoll(
            ev.at("args").at("value").raw.c_str(), nullptr, 10);
      } else if (out.ph == 'i' && ev.has("args")) {
        const jsonlite::Value& args = ev.at("args");
        if (args.has("detail")) out.detail = args.at("detail").str;
      }
      t.events.push_back(std::move(out));
    }
    if (doc.has("otherData")) {
      const jsonlite::Value& other = doc.at("otherData");
      if (other.has("trace_origin_wall_ns")) {
        t.origin_wall_ns =
            parse_u64(other.at("trace_origin_wall_ns").str);
      }
      t.have_anchor = other.has("clock_anchor_wall_ns") &&
                      t.origin_wall_ns != 0;
      if (other.has("trace_dropped_events")) {
        t.dropped = parse_u64(other.at("trace_dropped_events").str);
      }
      if (other.has("trace_flushes")) {
        t.flushes = parse_u64(other.at("trace_flushes").str);
      }
    }
    t.parsed = true;
  } catch (const std::exception&) {
    // Present but unreadable (torn by a non-atomic writer, truncated by
    // the filesystem, hand-damaged): reported as not parsed, never fatal.
    t.events.clear();
    t.thread_names.clear();
    t.parsed = false;
  }
  return t;
}

}  // namespace odcfp::trace
