// Process-wide telemetry: named counters, wall-clock timers, and
// hierarchical spans over the whole fingerprinting pipeline.
//
// The paper's claims are quantitative (location counts, Table II/III
// overheads, Fig. 7 curves), so every serving-layer question is "where
// did the time / budget go?". This module answers it with a registry of
// *span aggregates*: a span is an RAII scope named by a string literal
// (TELEM_SPAN("find_locations")); closing it adds one instance (count +
// elapsed wall time) to the aggregate node addressed by the names of the
// spans open on the current thread. Counters (TELEM_COUNT) attach to the
// innermost open span. The result is a tree keyed by span *path*, not a
// trace of individual events — which is what makes multi-threaded
// collection deterministic (see below).
//
// Threading / determinism contract:
//  * Every thread buffers into a private shadow tree (no locks on the
//    hot path). The shadow merges into the global registry when the
//    thread's outermost span closes (or at thread exit / flush_thread()).
//  * Merging sums counts and counters per path; it is commutative and
//    associative, so the merged structure, span counts, and counter
//    values are identical for any thread count and any scheduling — only
//    wall-clock durations vary run to run. The deterministic-merge tests
//    assert exactly this at 1/2/8 threads.
//  * ThreadPool work items run on worker threads whose span stack is
//    empty; parallel_for re-roots each item a worker runs under the span
//    path open on the calling thread (AttachScope), so per-item spans
//    nest under the phase that issued them.
//  * Telemetry is an observer only: nothing in the pipeline reads it
//    back, so results are bit-identical with telemetry on or off.
//
// Recording: spans, counters and histograms are probes of the one
// recorder (common/recorder.*), which also feeds the event trace
// (common/trace.hpp) from the same span stack.
//
// Overhead policy:
//  * Disabled (telemetry and tracing off): one relaxed atomic load per
//    macro, zero allocation — enforced by a test that counts operator
//    new calls.
//  * Enabled: span open/close is one clock read and a couple of
//    small-map lookups in thread-local memory; counters likewise. Nodes
//    allocate once per distinct path per thread. No locks except at
//    merge points.
//
// Span names must be string literals (or otherwise outlive the process):
// the registry and the Budget death-attribution hook store the pointers.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.hpp"

namespace odcfp::telemetry {

/// Aggregate of all closed span instances sharing one path, plus the
/// counters charged while a span of that path was innermost.
struct Node {
  std::uint64_t count = 0;     ///< Closed span instances.
  std::uint64_t total_ns = 0;  ///< Wall time summed over instances.
  /// Counter name -> accumulated value. std::map keeps export order
  /// deterministic (sorted by name, independent of creation order).
  std::map<std::string, std::int64_t> counters;
  /// Histogram name -> log2-bucket histogram (TELEM_HIST). Same merge
  /// and export discipline as counters; see common/metrics.hpp for the
  /// bucket scheme and determinism contract.
  std::map<std::string, metrics::HistData> hists;
  std::map<std::string, Node> children;

  bool operator==(const Node&) const = default;

  /// Child lookup by path, nullptr when absent.
  const Node* find(std::initializer_list<std::string_view> path) const;
  /// Counter value on this node (0 when absent).
  std::int64_t counter(std::string_view name) const;
  /// Histogram on this node, nullptr when absent.
  const metrics::HistData* hist(std::string_view name) const;
  /// Merge of every histogram named `name` anywhere in this subtree
  /// (histograms merge commutatively, so the result is path-free but
  /// still deterministic). Empty HistData when the name never occurs.
  metrics::HistData hist_total(std::string_view name) const;
};

/// Runtime toggle. Initialized from the ODCFP_TELEMETRY environment
/// variable ("0" disables; anything else, or unset, enables); see
/// recorder::config().
bool enabled();
void set_enabled(bool on);

/// RAII span. `name` must have static storage duration (use TELEM_SPAN,
/// which only accepts literals). Construction with telemetry and tracing
/// off costs one atomic load and allocates nothing. When event tracing
/// is active (common/trace.hpp) the span also emits a B/E duration event
/// pair — independently of the telemetry toggle, so a pure trace run
/// still gets a timeline and still knows its open spans.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;  ///< A frame was pushed.
};

/// Adds `n` to counter `name` on the innermost open span of this thread
/// (on the root when no span is open). `name` must be a literal.
void count(const char* name, std::int64_t n = 1);

/// Records one sample into histogram `name` on the innermost open span
/// of this thread (on the root when no span is open). `name` must be a
/// literal. Like count(), the sample also feeds the event trace as a
/// counter track when tracing is active. Name histograms of wall-clock
/// values `*_ns`: the time-like-name rule is what keeps them out of the
/// determinism gates.
void hist(const char* name, std::uint64_t value);

/// RAII wall-clock sampler: records the scope's elapsed nanoseconds
/// into histogram `name` on destruction. Unlike Span it adds no node to
/// the tree and never emits trace events — it is a pure latency sample.
/// Disabled telemetry costs one relaxed atomic load and no clock read.
class HistTimer {
 public:
  explicit HistTimer(const char* name);
  ~HistTimer();
  HistTimer(const HistTimer&) = delete;
  HistTimer& operator=(const HistTimer&) = delete;

 private:
  const char* name_ = nullptr;  ///< Non-null only when armed.
  std::uint64_t start_ns_ = 0;
};

/// Name of the innermost open span on this thread; nullptr when no span
/// is open or telemetry and tracing are both off. The pointer has static
/// storage duration (it is the literal passed to TELEM_SPAN).
const char* current_span_name();

/// The open-span path of this thread, outermost first. Pass it to
/// AttachScope on a worker thread to nest the worker's spans under the
/// fan-out site (parallel_for does this itself). Empty when telemetry
/// and tracing are both off.
std::vector<const char*> current_path();

/// Re-roots this thread's telemetry under `path` for the scope's
/// lifetime: spans opened inside nest under path[0]/path[1]/...; the
/// thread's previous span stack (if any) is suspended and restored on
/// exit.
/// The attach frames are structural only: they add no count and no time.
/// When event tracing is active they draw B/E events on the worker's own
/// track, so a pool worker's timeline shows which fan-out phase each
/// item served.
class AttachScope {
 public:
  explicit AttachScope(const std::vector<const char*>& path);
  ~AttachScope();
  AttachScope(const AttachScope&) = delete;
  AttachScope& operator=(const AttachScope&) = delete;

 private:
  bool active_ = false;  ///< The previous stack was suspended.
};

/// Merges this thread's shadow tree into the global registry now. Only
/// needed for threads that record outside any span and never exit;
/// span-closing threads flush automatically.
void flush_thread();

/// Copy of the merged global tree (flushes the calling thread first).
Node snapshot();

/// Clears the merged global data. Open spans on live threads are
/// unaffected and will merge into the cleared registry when they close.
void reset();

// ---- export ----

/// Human-readable indented tree: count, total ms, mean, counters.
void dump_tree(std::ostream& os, const Node& root);

/// One JSON object for the whole tree (deterministic serialization:
/// keys sorted, integers exact).
std::string to_json(const Node& root);

/// Reads to_json's output back into a Node through common/json_lite
/// (round-trip: parse_json(to_json(n)) == n). Throws CheckError on
/// malformed input, an unknown key, and a count or counter that is not
/// an integer in its field's range.
Node parse_json(std::string_view json);

}  // namespace odcfp::telemetry

#define ODCFP_TELEM_CAT2(a, b) a##b
#define ODCFP_TELEM_CAT(a, b) ODCFP_TELEM_CAT2(a, b)
/// Opens a span for the rest of the enclosing scope. `name` must be a
/// string literal.
#define TELEM_SPAN(name) \
  ::odcfp::telemetry::Span ODCFP_TELEM_CAT(telem_span_, __LINE__)("" name)
/// Adds `n` to counter `name` (a string literal) on the innermost span.
#define TELEM_COUNT(name, n) ::odcfp::telemetry::count("" name, (n))
/// Records one sample into histogram `name` (a string literal).
#define TELEM_HIST(name, v) ::odcfp::telemetry::hist("" name, (v))
/// Samples the elapsed wall time of the enclosing scope into histogram
/// `name` (a string literal — use a `*_ns` suffix).
#define TELEM_HIST_TIMER(name) \
  ::odcfp::telemetry::HistTimer ODCFP_TELEM_CAT(telem_hist_, \
                                                __LINE__)("" name)
