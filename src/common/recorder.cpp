#include "common/recorder.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <utility>

#include "common/clock.hpp"
#include "common/trace.hpp"

namespace odcfp::recorder {

std::atomic<unsigned> g_sinks{kUnconfigured | kAggregate};

namespace {

/// The value `name` keys in `items`, appended when absent. The lists
/// are short linear vectors: the branch factor of real span trees is a
/// handful, and a pointer compare short-circuits the common case where
/// the same literal is seen again.
template <class V>
V& slot(std::vector<std::pair<const char*, V>>& items, const char* name) {
  for (auto& [key, value] : items) {
    if (key == name || std::strcmp(key, name) == 0) return value;
  }
  return items.emplace_back(name, V{}).second;
}

/// One node of a thread's private shadow tree, keyed by static-storage
/// names (span, counter and histogram literals).
struct LocalNode {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::vector<std::pair<const char*, std::int64_t>> counters;
  std::vector<std::pair<const char*, metrics::HistData>> hists;
  std::vector<std::pair<const char*, std::unique_ptr<LocalNode>>> children;

  LocalNode* child(const char* name) {
    std::unique_ptr<LocalNode>& c = slot(children, name);
    if (c == nullptr) c = std::make_unique<LocalNode>();
    return c.get();
  }

  bool empty() const {
    return count == 0 && total_ns == 0 && counters.empty() &&
           hists.empty() && children.empty();
  }
};

/// Additive merge: commutative and associative, so the global tree is
/// independent of which thread flushes first.
void merge_into(telemetry::Node& dst, const LocalNode& src) {
  dst.count += src.count;
  dst.total_ns += src.total_ns;
  for (const auto& [name, v] : src.counters) {
    dst.counters[std::string(name)] += v;
  }
  for (const auto& [name, h] : src.hists) {
    dst.hists[std::string(name)].merge(h);
  }
  for (const auto& [name, c] : src.children) {
    merge_into(dst.children[std::string(name)], *c);
  }
}

/// One open span, or one structural frame of an AttachScope.
struct Frame {
  const char* name;
  /// Where the frame's children and counters go: its own node when
  /// telemetry was on at open, else its parent's.
  LocalNode* node;
  std::uint64_t start_ns;  ///< Steady clock at open.
  bool counted;            ///< Adds an instance and its time at close.
  std::uint64_t epoch;     ///< Timeline its B event went into; 0 = none.
};

struct ThreadState {
  std::vector<Frame> stack;
  /// Stacks suspended by live AttachScopes, innermost last.
  std::vector<std::vector<Frame>> saved;
  LocalNode root;
  std::shared_ptr<Buffer> buffer;  ///< Its buffer in timeline `epoch`.
  std::uint64_t epoch = 0;
  std::uint32_t index = 0;
  std::string name;  ///< Track name; kept across timelines.

  /// Takes the lowest index no live thread holds.
  ThreadState() {
    Shared& s = shared();
    std::lock_guard<std::mutex> lock(s.mu);
    index = static_cast<std::uint32_t>(
        std::find(s.taken.begin(), s.taken.end(), false) - s.taken.begin());
    if (index == s.taken.size()) s.taken.push_back(false);
    s.taken[index] = true;
  }

  ~ThreadState() {
    flush(/*force=*/true);
    Shared& s = shared();
    std::lock_guard<std::mutex> lock(s.mu);
    s.taken[index] = false;
  }

  ThreadState(const ThreadState&) = delete;
  ThreadState& operator=(const ThreadState&) = delete;

  LocalNode* node() { return stack.empty() ? &root : stack.back().node; }

  /// This thread's buffer in the live timeline, registered on the
  /// thread's first event of each timeline.
  Buffer& live_buffer() {
    Shared& s = shared();
    if (buffer == nullptr ||
        epoch != s.epoch.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(s.mu);
      buffer = std::make_shared<Buffer>(s.limit);
      s.tracks.push_back({index, name, buffer});
      epoch = s.epoch.load(std::memory_order_relaxed);
    }
    return *buffer;
  }

  /// Appends one event to the live timeline; returns that timeline's
  /// epoch. On overflow the newest events are dropped and counted, which
  /// keeps the recorded prefix nested.
  std::uint64_t emit(char ph, const char* event, const char* detail,
                     std::int64_t value, std::uint64_t now) {
    Buffer& b = live_buffer();
    const std::size_t i = b.size.load(std::memory_order_relaxed);
    if (i >= b.events.size()) {
      b.dropped.fetch_add(1, std::memory_order_relaxed);
      return epoch;
    }
    const std::uint64_t origin =
        shared().origin_ns.load(std::memory_order_relaxed);
    b.events[i] = {event, detail, now > origin ? now - origin : 0, value,
                   ph};
    b.size.store(i + 1, std::memory_order_release);
    return epoch;
  }

  void push(const char* span, unsigned on, bool counted,
            std::uint64_t now) {
    LocalNode* parent = node();
    const bool aggregate = (on & kAggregate) != 0;
    Frame f{span, aggregate ? parent->child(span) : parent, now,
            aggregate && counted, 0};
    if ((on & kTimeline) != 0) f.epoch = emit('B', span, nullptr, 0, now);
    stack.push_back(f);
  }

  void pop(unsigned on, std::uint64_t now) {
    const Frame f = stack.back();
    stack.pop_back();
    if (f.counted) {
      f.node->count += 1;
      f.node->total_ns += now - f.start_ns;
    }
    // Only a B of the live timeline gets its E: after a stop or a
    // restart the E would close nothing.
    if (f.epoch != 0 && (on & kTimeline) != 0 &&
        f.epoch == shared().epoch.load(std::memory_order_acquire)) {
      emit('E', f.name, nullptr, 0, now);
    }
  }

  /// Merges the shadow tree into the registry and clears it. Unless
  /// forced (thread exit), refuses while frames are open — they hold
  /// pointers into the shadow tree.
  void flush(bool force = false) {
    if (!force && (!stack.empty() || !saved.empty())) return;
    if (root.empty()) return;
    Shared& s = shared();
    std::lock_guard<std::mutex> lock(s.mu);
    merge_into(s.registry, root);
    root = LocalNode{};
  }
};

ThreadState& thread_state() {
  thread_local ThreadState state;
  return state;
}

/// Applies config() once: the telemetry toggle, and ODCFP_TRACE, which
/// is trace::start plus trace::arm_file at the first probe.
unsigned configure() {
  static const bool applied = [] {
    const Config& c = config();
    // One atomic step that leaves kTimeline alone: a trace started
    // before the first probe stays on.
    g_sinks.fetch_and(c.telemetry ? ~kUnconfigured
                                  : ~(kUnconfigured | kAggregate),
                      std::memory_order_relaxed);
    if (!c.trace_path.empty()) {
      trace::start(c.trace_limit);
      trace::arm_file(c.trace_path);
    }
    return true;
  }();
  (void)applied;
  return g_sinks.load(std::memory_order_relaxed);
}

}  // namespace

const Config& config() {
  static const Config& instance = *[] {
    const auto env = [](const char* name) {
      const char* v = std::getenv(name);
      return std::string(v != nullptr ? v : "");
    };
    auto* c = new Config();
    c->telemetry = env("ODCFP_TELEMETRY") != "0";
    c->trace_path = env("ODCFP_TRACE");
    const long long limit = std::atoll(env("ODCFP_TRACE_LIMIT").c_str());
    if (limit > 0) c->trace_limit = static_cast<std::size_t>(limit);
    c->log_path = env("ODCFP_LOG");
    c->log_level = env("ODCFP_LOG_LEVEL");
    return c;
  }();
  return instance;
}

unsigned sinks() {
  const unsigned on = g_sinks.load(std::memory_order_relaxed);
  return (on & kUnconfigured) != 0 ? configure() : on;
}

Shared& shared() {
  static Shared* const instance = new Shared();
  return *instance;
}

std::uint32_t thread_index() { return thread_state().index; }

}  // namespace odcfp::recorder

// ---- the probes ----

namespace odcfp::telemetry {

using namespace recorder;

bool enabled() { return (sinks() & kAggregate) != 0; }

void set_enabled(bool on) {
  sinks();  // config() first, so it cannot undo this toggle later
  if (on) {
    g_sinks.fetch_or(kAggregate, std::memory_order_relaxed);
  } else {
    g_sinks.fetch_and(~kAggregate, std::memory_order_relaxed);
  }
}

Span::Span(const char* name) {
  const unsigned on = sinks();
  if (on == 0) return;
  thread_state().push(name, on, /*counted=*/true, clocks::steady_now_ns());
  active_ = true;
}

Span::~Span() {
  if (!active_) return;
  ThreadState& t = thread_state();
  if (t.stack.empty()) return;  // defensive: mismatched scopes
  t.pop(sinks(), clocks::steady_now_ns());
  t.flush();
}

namespace {

/// One TELEM_COUNT or TELEM_HIST sample: a C event on the timeline, and
/// `add` applied to the innermost node of the telemetry tree.
template <class Add>
void sample(const char* name, std::int64_t value, const Add& add) {
  const unsigned on = sinks();
  if (on == 0) return;
  ThreadState& t = thread_state();
  if ((on & kTimeline) != 0) {
    t.emit('C', name, nullptr, value, clocks::steady_now_ns());
  }
  if ((on & kAggregate) != 0) add(*t.node());
}

}  // namespace

void count(const char* name, std::int64_t n) {
  sample(name, n,
         [&](LocalNode& node) { slot(node.counters, name) += n; });
}

void hist(const char* name, std::uint64_t value) {
  sample(name, static_cast<std::int64_t>(value),
         [&](LocalNode& node) {
           slot(node.hists, name).record(value);
         });
}

HistTimer::HistTimer(const char* name) {
  if ((sinks() & kAggregate) == 0) return;
  name_ = name;
  start_ns_ = clocks::steady_now_ns();
}

HistTimer::~HistTimer() {
  if (name_ == nullptr) return;
  // Record even if telemetry was toggled off mid-scope: the sample was
  // armed, and dropping it would make disable() racy with open timers.
  slot(thread_state().node()->hists, name_)
      .record(clocks::steady_now_ns() - start_ns_);
}

const char* current_span_name() {
  if (sinks() == 0) return nullptr;
  const ThreadState& t = thread_state();
  return t.stack.empty() ? nullptr : t.stack.back().name;
}

std::vector<const char*> current_path() {
  std::vector<const char*> path;
  if (sinks() == 0) return path;
  const ThreadState& t = thread_state();
  path.reserve(t.stack.size());
  for (const Frame& f : t.stack) path.push_back(f.name);
  return path;
}

AttachScope::AttachScope(const std::vector<const char*>& path) {
  const unsigned on = sinks();
  if (on == 0) return;
  ThreadState& t = thread_state();
  t.saved.push_back(std::move(t.stack));
  t.stack.clear();
  const std::uint64_t now =
      (on & kTimeline) != 0 ? clocks::steady_now_ns() : 0;
  for (const char* name : path) t.push(name, on, /*counted=*/false, now);
  active_ = true;
}

AttachScope::~AttachScope() {
  if (!active_) return;
  ThreadState& t = thread_state();
  const unsigned on = sinks();
  const std::uint64_t now =
      (on & kTimeline) != 0 ? clocks::steady_now_ns() : 0;
  // The spans opened inside were lexical and have closed: only the
  // attach frames are left, and popping them draws their E events.
  while (!t.stack.empty()) t.pop(on, now);
  t.stack = std::move(t.saved.back());
  t.saved.pop_back();
  t.flush();
}

void flush_thread() { thread_state().flush(); }

Node snapshot() {
  flush_thread();
  Shared& s = shared();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.registry;
}

void reset() {
  Shared& s = shared();
  std::lock_guard<std::mutex> lock(s.mu);
  s.registry = Node{};
}

}  // namespace odcfp::telemetry

namespace odcfp::trace {

using namespace recorder;

bool enabled() { return (sinks() & kTimeline) != 0; }

void instant(const char* name, const char* detail) {
  if (!enabled()) return;
  thread_state().emit('i', name, detail, 0, clocks::steady_now_ns());
}

void set_thread_name(const char* name) {
  ThreadState& t = thread_state();
  t.name = std::string_view(name).substr(0, 47);
  if (!enabled()) return;
  const Buffer* live = &t.live_buffer();
  Shared& s = shared();
  std::lock_guard<std::mutex> lock(s.mu);
  for (Track& track : s.tracks) {
    if (track.buffer.get() == live) track.name = t.name;
  }
}

}  // namespace odcfp::trace
