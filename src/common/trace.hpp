// Event-level tracing: a per-thread, lock-free, bounded trace recorder
// emitting Chrome trace_event / Perfetto-compatible JSON.
//
// Where src/common/telemetry.* answers "how much time / effort per span
// path, in aggregate", this module answers "what happened, when, on
// which thread": every telemetry::Span open/close becomes a B/E duration
// event, every TELEM_COUNT becomes a C counter sample, and one-shot
// moments — budget exhaustion, fault injections, SAT restarts — become
// `i` instant events. The three layers join on the same span-name
// strings, so a slow path found in the aggregate tree can be located on
// the timeline (and in the structured log, see src/common/log.*) without
// re-running anything.
//
// Recording model (common/recorder.*, the one recorder behind
// telemetry, trace and log):
//  * Each thread appends events to a private fixed-capacity buffer; the
//    hot path is one relaxed load of the recorder's enabled word when
//    off, and when on a bounds check + slot write + one release store
//    (no locks, no allocation after the buffer exists). Buffers are
//    preallocated at first use per thread (capacity from trace::start /
//    ODCFP_TRACE_LIMIT, default 256Ki events), so memory is bounded by
//    threads x limit x sizeof(Event).
//  * B/E events come from the same span stack as telemetry's tree, with
//    the same clock read per span edge, so a run with only tracing on
//    still attributes budget deaths and log records to their spans.
//  * On overflow the *newest* events are dropped and counted — keeping
//    the earliest prefix preserves B/E nesting (a valid truncated
//    timeline), where overwriting the oldest would orphan end events.
//    The drop count is exposed via dropped_events(), embedded in the
//    trace file's otherData, and reported as trace_dropped_events in
//    BENCH_*.json artifacts (schema v2).
//  * Collection (write/write_file) reads each buffer's published prefix
//    via an acquire load, so a post-run flush is safe while idle worker
//    threads are still alive. The flush serializes exactly the published
//    events, track by track, in one pass.
//  * Tracing is an observer: like telemetry, nothing reads it back, so
//    pipeline results are bit-identical with tracing on or off.
//
// Track naming: the track id is the recorder's thread index, the same
// `tid` the thread's log records carry. Pool workers call
// set_thread_name("pool-worker-N") (done by ThreadPool), and the pool
// re-roots each item a worker runs under the caller's open spans
// (telemetry::AttachScope), which draws that path as B/E events on the
// worker's track, so a worker's timeline shows which fan-out phase each
// item served.
//
// Durability: arm_file(path) makes the trace crash-survivable — flush()
// atomically rewrites `path` with everything published so far, and a
// one-shot atexit handler writes the final state on clean exit. The
// distributed layer arms per-shard files under run_dir/traces/ and
// flushes on every heartbeat tick, so a worker SIGKILLed mid-run loses
// at most the events since its last heartbeat; otherData counts the
// flushes so the stitcher can report how stale a truncated file is.
//
// Cross-process identity: each trace file's otherData embeds this
// process's clock anchor (see src/common/clock.*) plus the process
// label and any set_meta() key/values (run label, shard, epoch), which
// is everything src/dist/stitch.* needs to align and attribute tracks
// without out-of-band context.
//
// File format: only this module knows the Chrome trace_event format.
// ChromeWriter renders write()'s files and the stitcher's timeline;
// read_file() reads a file back for the stitcher.
//
// Activation: set ODCFP_TRACE=<path> to record for the whole process
// (the path is armed, so the same incremental-durability rules apply),
// or call start()/arm_file()/write_file() programmatically. Spans and
// counter samples come from TELEM_SPAN / TELEM_COUNT / TELEM_HIST
// (common/telemetry.hpp); instant() is this module's own emitter. All
// name/detail strings passed to the emitters must have static storage
// duration (they are the TELEM_SPAN/fault-site literals);
// set_thread_name / set_process_label / set_meta copy their arguments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace odcfp::trace {

/// True while a trace is being recorded (one relaxed atomic load).
bool enabled();

/// Begins recording into per-thread memory buffers. `per_thread_limit`
/// caps events per thread (0 = $ODCFP_TRACE_LIMIT or 256Ki). A no-op if
/// already recording. Clears any previously collected events.
void start(std::size_t per_thread_limit = 0);

/// Stops recording and discards all buffered events (write first to keep
/// them). A no-op when not recording.
void stop();

/// Serializes everything recorded since start() as one Chrome
/// trace_event JSON object ({"traceEvents":[...], ...}). Callable while
/// recording; concurrent emitters are safe but only their already
/// published events appear.
void write(std::ostream& os);

/// write() to a file; returns false (and reports via the structured log)
/// when the file cannot be opened.
bool write_file(const std::string& path);

/// Events dropped on buffer overflow since start(), summed over threads.
std::uint64_t dropped_events();

/// Events currently recorded (published), summed over threads.
std::uint64_t recorded_events();

/// Names the calling thread's track in the emitted trace ("main",
/// "pool-worker-3"). Copied (truncated to 47 chars); callable before
/// start(), the name sticks to the thread for later traces. Unnamed
/// tracks are "thread-<tid>".
void set_thread_name(const char* name);

/// Names this process's track group in the emitted trace (the
/// process_name metadata event), e.g. "supervisor" or "shard-3".
/// Copied (truncated to 47 chars); default "odcfp". Reset by start().
void set_process_label(const char* label);

/// Attaches a key/value pair to the trace file's otherData (both copied)
/// — run/shard/epoch identity for the stitcher. Keys sort
/// deterministically in the output; reserved otherData keys (those
/// starting with "trace_" or "clock_") are silently skipped. Cleared by
/// start().
void set_meta(const std::string& key, const std::string& value);

/// Arms incremental durability: flush() and a one-shot atexit handler
/// atomically rewrite `path` with the published events. Arming does not
/// start recording (call start() first); re-arming replaces the path.
void arm_file(const std::string& path);

/// Clears the armed path without writing. The atexit handler becomes a
/// no-op until armed again.
void disarm();

/// True when a flush destination is armed (arm_file or ODCFP_TRACE).
bool armed();

/// Atomically rewrites the armed file with everything published so far;
/// keeps recording and stays armed. Returns false when nothing is armed
/// or the write failed. Cheap enough for heartbeat cadence: one render
/// of the live buffers plus one temp-file rename.
bool flush();

/// Completed flushes to the armed path since start() (includes the one
/// in flight when read from inside a flush-written file).
std::uint64_t flush_count();

/// Thread-scoped instant event (ph "i"), e.g. "budget.exhausted",
/// "fault.injected", "sat.restart". `detail` lands in args.detail. A
/// no-op unless enabled; `name` and `detail` must be string literals or
/// otherwise outlive the process.
void instant(const char* name, const char* detail = nullptr);

// ---- the file format ----

/// Renders one Chrome trace_event document: a traceEvents array with one
/// {"name":..,"ph":..,"pid":..,"tid":..,...} object per line, then an
/// otherData map. event() opens an event object and the calls after it
/// append fields to it in call order; the next event() or finish()
/// closes it. Times are Chrome's microseconds with a three-digit
/// nanosecond fraction.
class ChromeWriter {
 public:
  explicit ChromeWriter(std::ostream& os);

  ChromeWriter& event(std::string_view name, char ph, std::uint64_t pid,
                      std::uint64_t tid);
  /// `key` is "ts" or "dur".
  ChromeWriter& time(const char* key, std::uint64_t ns);
  /// "s":"t": the instant belongs to its thread's track.
  ChromeWriter& thread_scope();
  /// One member of the event's "args" object.
  ChromeWriter& arg(const char* key, std::int64_t value);
  ChromeWriter& arg(const char* key, std::uint64_t value);
  ChromeWriter& arg(const char* key, std::string_view value);

  /// A ph "M" event: `kind` "process_name" names process `pid`,
  /// "thread_name" names its track `tid`.
  void name(const char* kind, std::uint64_t pid, std::uint64_t tid,
            std::string_view name);
  /// A B/E/C/i event as the recorder writes it: C carries `value`; i is
  /// thread-scoped and carries `detail` unless it is null.
  void recorded(std::string_view name, char ph, std::uint64_t pid,
                std::uint64_t tid, std::uint64_t ts_ns, std::int64_t value,
                const char* detail);

  /// Closes the event array and writes `other_data`, sorted by key.
  void finish(const std::map<std::string, std::string>& other_data);

  /// Events written so far, M events included.
  std::uint64_t events() const { return events_; }

 private:
  /// Appends "key":<json> to the open event's args object.
  ChromeWriter& arg_json(const char* key, const std::string& json);

  std::ostream& os_;
  std::uint64_t events_ = 0;
  bool in_args_ = false;  ///< The open event's args object is open.
};

/// A trace file read back, in the form the stitcher relocates onto
/// another timeline: events keep their recorder-relative timestamps, and
/// the otherData anchor says where that timeline starts in wall time.
struct TraceFile {
  bool present = false;      ///< The file existed and was readable.
  bool parsed = false;       ///< ... and held a well-formed Chrome trace.
  bool have_anchor = false;  ///< otherData carries the clock anchor.
  std::uint64_t origin_wall_ns = 0;  ///< trace_origin_wall_ns.
  std::uint64_t dropped = 0;         ///< trace_dropped_events.
  std::uint64_t flushes = 0;         ///< trace_flushes.
  std::string process_label;

  struct Event {
    std::string name;
    char ph = 'i';
    std::uint64_t tid = 0;
    std::uint64_t rel_ns = 0;  ///< ts, from the trace origin.
    std::int64_t value = 0;    ///< Counter value (ph 'C').
    std::string detail;        ///< Instant detail ("" = none).
  };
  std::vector<Event> events;
  /// thread_name metadata, in file order: (tid, name).
  std::vector<std::pair<std::uint64_t, std::string>> thread_names;
};

/// Reads a trace file write() produced. Never throws: a file that is
/// missing, torn or hand-damaged comes back not present or not parsed.
TraceFile read_file(const std::string& path);

}  // namespace odcfp::trace
