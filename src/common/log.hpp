// Leveled structured logging: one JSON object per line (JSONL).
//
// Every record carries the thread's open-span path ("span") and index
// ("tid") from the one recorder behind telemetry, trace and log
// (src/common/recorder.*), so a log line, the aggregate telemetry tree
// (src/common/telemetry.*), and the event timeline (src/common/trace.*)
// all join on the span-name strings, and a record's tid is the tid of
// its thread's trace track. A budget death logged by the serving layer
// can be matched to the span where the telemetry attributed it and to
// the budget.exhausted instant on the trace timeline without any other
// correlation id.
//
// Configuration (read once by recorder::config(), overridable
// programmatically):
//  * ODCFP_LOG=<path>|stderr|stdout|-  routes all enabled records there.
//    When unset, only kWarn and kError records are emitted (to stderr),
//    so libraries can log unconditionally without spamming example
//    binaries' stdout UX.
//  * ODCFP_LOG_LEVEL=debug|info|warn|error|off  minimum level (default
//    info).
//
// Record shape (reserved keys first, then user fields in call order):
//   {"ts_ns":<anchored wall ns>,"level":"info","event":"batch.done",
//    "tid":2,"span":"/batch_fingerprint/batch_fingerprint.edition", ...}
//
// Timebase: ts_ns is the *anchored* wall clock (src/common/clock.*) —
// the process clock anchor plus the steady-clock delta — so log lines,
// trace timestamps, and the wall= fields on dist journal records all
// share one epoch and merge into the stitched timeline without
// per-source correction. When ODCFP_LOG names a destination, the first
// record written is one `clock_anchor` event carrying the anchor pair
// and pid, so a log file is self-describing the same way a trace file's
// otherData is.
// Field keys must not collide with the reserved keys (ts_ns, level,
// event, tid, span); the logger does not deduplicate.
//
// Cost contract: a record below the active level (or below kWarn with no
// sink configured) costs one atomic load and allocates nothing; active
// records format into a per-record buffer and take one short mutex hold
// to append the line atomically (records from concurrent threads never
// interleave within a line).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace odcfp::log {

enum class Level : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3,
                         kOff = 4 };

const char* to_string(Level level);

/// Active minimum level (from ODCFP_LOG_LEVEL, default kInfo).
Level level();
void set_level(Level level);

/// True when a record at `level` would actually be written.
bool enabled(Level level);

/// Redirects all enabled records to `os` (tests / embedders); nullptr
/// restores the ODCFP_LOG-configured default.
void set_stream(std::ostream* os);

/// The self-description record written first to every ODCFP_LOG
/// destination: {"ts_ns":...,"event":"clock_anchor",...,"wall_ns":...,
/// "steady_ns":...,"pid":...}, newline-terminated. Exposed so tests and
/// embedders with their own sinks can emit / verify the same line.
std::string clock_anchor_line();

/// One structured record, emitted on destruction. Move-only; build it
/// fluently in one expression:
///   log::warn("cec.exhausted").field("conflicts", n).field("method", m);
class Record {
 public:
  Record(Level level, const char* event);
  ~Record();
  Record(Record&& other) noexcept;
  Record(const Record&) = delete;
  Record& operator=(const Record&) = delete;
  Record& operator=(Record&&) = delete;

  Record& field(const char* key, std::string_view value);
  Record& field(const char* key, const char* value);
  Record& field(const char* key, std::int64_t value);
  Record& field(const char* key, std::uint64_t value);
  Record& field(const char* key, int value) {
    return field(key, static_cast<std::int64_t>(value));
  }
  Record& field(const char* key, double value);
  Record& field(const char* key, bool value);

 private:
  bool active_ = false;
  Level level_ = Level::kInfo;
  std::string line_;
};

inline Record debug(const char* event) {
  return Record(Level::kDebug, event);
}
inline Record info(const char* event) { return Record(Level::kInfo, event); }
inline Record warn(const char* event) { return Record(Level::kWarn, event); }
inline Record error(const char* event) {
  return Record(Level::kError, event);
}

}  // namespace odcfp::log
