// The one recorder behind telemetry, trace and log (internal header).
//
// One per-thread state (open-span stack, telemetry shadow tree, timeline
// buffer, thread index and track name), one enabled word, and one state
// the threads share. The probes are the public functions of
// telemetry.hpp and trace.hpp, defined in recorder.cpp; trace.cpp and
// log.cpp read the rest through this header. See DESIGN.md §8b.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/telemetry.hpp"

namespace odcfp::recorder {

/// The environment, read once on first use. No other code reads these
/// variables.
struct Config {
  bool telemetry = true;  ///< ODCFP_TELEMETRY: "0" turns telemetry off.
  std::string trace_path;  ///< ODCFP_TRACE: record the whole process.
  /// ODCFP_TRACE_LIMIT: timeline events kept per thread.
  std::size_t trace_limit = std::size_t{1} << 18;
  std::string log_path;   ///< ODCFP_LOG ("" = unset).
  std::string log_level;  ///< ODCFP_LOG_LEVEL ("" = unset).
};
const Config& config();

/// Bits of the enabled word.
inline constexpr unsigned kAggregate = 1;     ///< The telemetry tree.
inline constexpr unsigned kTimeline = 2;      ///< The trace buffers.
inline constexpr unsigned kUnconfigured = 4;  ///< config() not applied.

/// The enabled word. Probes read it through sinks(); trace::start/stop
/// and telemetry::set_enabled flip its bits.
extern std::atomic<unsigned> g_sinks;

/// The sinks that are on: one relaxed load. The first call in the
/// process applies config() (ODCFP_TRACE starts and arms a trace).
unsigned sinks();

/// One timeline event. Both pointers have static storage duration
/// (span-name and fault-site literals).
struct Event {
  const char* name = nullptr;
  const char* detail = nullptr;
  std::uint64_t ts_ns = 0;  ///< From the timeline's origin.
  std::int64_t value = 0;
  char ph = 'i';  ///< Chrome phase: B, E, C or i.
};

/// One thread's events in one timeline. The owner thread is the only
/// writer: it fills slot `size` and publishes it with a release store,
/// so a reader that loads `size` with acquire sees whole events. The
/// storage is preallocated and never reallocated.
struct Buffer {
  explicit Buffer(std::size_t limit) : events(limit) {}

  std::vector<Event> events;
  std::atomic<std::size_t> size{0};
  std::atomic<std::uint64_t> dropped{0};  ///< Events past the limit.
};

/// One thread's track in the live timeline.
struct Track {
  std::uint32_t tid = 0;  ///< The owner's thread index.
  std::string name;       ///< Its track name ("" = unnamed).
  std::shared_ptr<const Buffer> buffer;
};

/// What the threads share. Leaked on purpose: thread-exit flushes and
/// the armed-trace exit flush may run during static destruction.
struct Shared {
  std::mutex mu;  ///< Guards every member that is not atomic.
  telemetry::Node registry;  ///< The merged telemetry tree.
  std::vector<bool> taken;   ///< Thread indices held by live threads.
  /// The live timeline's tracks, in the order threads first recorded.
  /// A thread that took an exited thread's index continues that tid.
  std::vector<Track> tracks;
  std::size_t limit = Config{}.trace_limit;  ///< Events per thread.
  /// Bumped by every trace::start: a thread whose buffer belongs to an
  /// older timeline registers a new one.
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<std::uint64_t> origin_ns{0};  ///< Steady ns at start.
  // What a trace file carries besides the events (common/trace.cpp).
  std::string label = "odcfp";              ///< process_name metadata.
  std::map<std::string, std::string> meta;  ///< Extra otherData entries.
  std::string armed_path;  ///< Flush destination; empty = disarmed.
  std::atomic<std::uint64_t> flushes{0};  ///< Flushes since start.
};
Shared& shared();

/// The calling thread's index: the `tid` of its log records and of its
/// trace track. A live thread keeps its index; an exited thread's index
/// goes to the next new thread, so indices stay below the number of
/// threads alive at once.
std::uint32_t thread_index();

}  // namespace odcfp::recorder
