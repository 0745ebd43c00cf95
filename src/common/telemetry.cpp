#include "common/telemetry.hpp"

#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <system_error>
#include <utility>

#include "common/check.hpp"
#include "common/json_lite.hpp"
#include "common/trace.hpp"

namespace odcfp::telemetry {

namespace {

using Clock = std::chrono::steady_clock;

bool initial_enabled() {
  const char* v = std::getenv("ODCFP_TELEMETRY");
  return !(v != nullptr && v[0] == '0' && v[1] == '\0');
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag(initial_enabled());
  return flag;
}

/// One node of a thread's private shadow tree. Children and counters are
/// small linear vectors: the branch factor of real span trees is a
/// handful, and a pointer compare short-circuits the common case where
/// the same TELEM_SPAN literal is seen again.
struct LocalNode {
  const char* name;  ///< Static-storage string (span-name literal).
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::vector<std::pair<const char*, std::int64_t>> counters;
  std::vector<std::pair<const char*, metrics::HistData>> hists;
  std::vector<std::unique_ptr<LocalNode>> children;

  explicit LocalNode(const char* n) : name(n) {}

  LocalNode* child(const char* child_name) {
    for (auto& c : children) {
      if (c->name == child_name ||
          std::strcmp(c->name, child_name) == 0) {
        return c.get();
      }
    }
    children.push_back(std::make_unique<LocalNode>(child_name));
    return children.back().get();
  }

  void add_counter(const char* counter_name, std::int64_t n) {
    for (auto& [cn, v] : counters) {
      if (cn == counter_name || std::strcmp(cn, counter_name) == 0) {
        v += n;
        return;
      }
    }
    counters.emplace_back(counter_name, n);
  }

  void add_hist(const char* hist_name, std::uint64_t v) {
    for (auto& [hn, h] : hists) {
      if (hn == hist_name || std::strcmp(hn, hist_name) == 0) {
        h.record(v);
        return;
      }
    }
    hists.emplace_back(hist_name, metrics::HistData{});
    hists.back().second.record(v);
  }

  void clear() {
    count = 0;
    total_ns = 0;
    counters.clear();
    hists.clear();
    children.clear();
  }

  bool empty() const {
    return count == 0 && total_ns == 0 && counters.empty() &&
           hists.empty() && children.empty();
  }
};

struct Frame {
  LocalNode* node;
  Clock::time_point start;
  bool timed;  ///< false for AttachScope's structural frames.
};

std::mutex& registry_mutex() {
  static std::mutex mu;
  return mu;
}

Node& registry_root() {
  static Node root;
  return root;
}

/// Additive merge: commutative and associative, so the global tree is
/// independent of which thread flushes first.
void merge_into(Node& dst, const LocalNode& src) {
  dst.count += src.count;
  dst.total_ns += src.total_ns;
  for (const auto& [name, v] : src.counters) {
    dst.counters[std::string(name)] += v;
  }
  for (const auto& [name, h] : src.hists) {
    dst.hists[std::string(name)].merge(h);
  }
  for (const auto& c : src.children) {
    merge_into(dst.children[std::string(c->name)], *c);
  }
}

struct ThreadSink {
  LocalNode root{""};
  std::vector<Frame> stack;
  /// Stacks suspended by live AttachScopes (restored on scope exit).
  /// Each entry also records how many structural frames the scope
  /// pushed, so its destructor knows how far to unwind.
  struct Saved {
    std::vector<Frame> frames;
    std::size_t attach_depth;
  };
  std::vector<Saved> saved;

  ~ThreadSink() { flush(/*force=*/true); }

  /// Merges the shadow tree into the registry and clears it. Unless
  /// forced (thread exit), refuses while frames are open — they hold
  /// pointers into the shadow tree.
  void flush(bool force = false) {
    if (!force && (!stack.empty() || !saved.empty())) return;
    if (root.empty()) return;
    std::lock_guard<std::mutex> lock(registry_mutex());
    merge_into(registry_root(), root);
    root.clear();
  }

  LocalNode* current() {
    return stack.empty() ? &root : stack.back().node;
  }
};

ThreadSink& sink() {
  thread_local ThreadSink s;
  return s;
}

}  // namespace

bool enabled() {
  return enabled_flag().load(std::memory_order_relaxed);
}

void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

Span::Span(const char* name) {
  if (trace::enabled()) {
    trace::begin(name);
    trace_name_ = name;
  }
  if (!enabled()) return;
  ThreadSink& s = sink();
  s.stack.push_back(
      {s.current()->child(name), Clock::now(), /*timed=*/true});
  active_ = true;
}

Span::~Span() {
  if (trace_name_ != nullptr) trace::end(trace_name_);
  if (!active_) return;
  ThreadSink& s = sink();
  if (s.stack.empty()) return;  // defensive: mismatched scopes
  const Frame f = s.stack.back();
  s.stack.pop_back();
  if (f.timed) {
    f.node->count += 1;
    f.node->total_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - f.start)
            .count());
  }
  s.flush();
}

void count(const char* name, std::int64_t n) {
  if (trace::enabled()) trace::counter(name, n);
  if (!enabled()) return;
  sink().current()->add_counter(name, n);
}

void hist(const char* name, std::uint64_t value) {
  if (trace::enabled()) {
    trace::counter(name, static_cast<std::int64_t>(value));
  }
  if (!enabled()) return;
  sink().current()->add_hist(name, value);
}

HistTimer::HistTimer(const char* name) {
  if (!enabled()) return;
  name_ = name;
  start_ns_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

HistTimer::~HistTimer() {
  if (name_ == nullptr) return;
  const std::uint64_t now_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
  // Record even if telemetry was toggled off mid-scope: the sample was
  // armed, and dropping it would make disable() racy with open timers.
  sink().current()->add_hist(name_, now_ns - start_ns_);
}

const char* current_span_name() {
  if (!enabled()) return nullptr;
  ThreadSink& s = sink();
  return s.stack.empty() ? nullptr : s.stack.back().node->name;
}

std::vector<const char*> current_path() {
  std::vector<const char*> path;
  if (!enabled()) return path;
  ThreadSink& s = sink();
  path.reserve(s.stack.size());
  for (const Frame& f : s.stack) path.push_back(f.node->name);
  return path;
}

AttachScope::AttachScope(const std::vector<const char*>& path) {
  if (trace::enabled() && !path.empty()) {
    // Paint the attach path onto this worker's trace track; the copies
    // are needed because `path` is the caller's and may die before ~.
    traced_.assign(path.begin(), path.end());
    for (const char* name : traced_) trace::begin(name);
  }
  if (!enabled()) return;
  ThreadSink& s = sink();
  s.saved.push_back({std::move(s.stack), path.size()});
  s.stack.clear();
  for (const char* name : path) {
    s.stack.push_back({s.current()->child(name), {}, /*timed=*/false});
  }
  active_ = true;
}

AttachScope::~AttachScope() {
  for (auto it = traced_.rbegin(); it != traced_.rend(); ++it) {
    trace::end(*it);
  }
  if (!active_) return;
  ThreadSink& s = sink();
  if (s.saved.empty()) return;  // defensive: mismatched scopes
  ThreadSink::Saved restored = std::move(s.saved.back());
  s.saved.pop_back();
  // All spans opened inside the scope are lexical and already closed;
  // only the structural attach frames remain.
  const std::size_t keep =
      s.stack.size() >= restored.attach_depth
          ? s.stack.size() - restored.attach_depth
          : 0;
  s.stack.resize(keep);
  if (s.stack.empty()) {
    s.stack = std::move(restored.frames);
  } else {
    // Mismatched nesting; drop the saved frames rather than interleave.
    s.stack.insert(s.stack.begin(), restored.frames.begin(),
                   restored.frames.end());
  }
  s.flush();
}

void flush_thread() { sink().flush(); }

Node snapshot() {
  flush_thread();
  std::lock_guard<std::mutex> lock(registry_mutex());
  return registry_root();
}

void reset() {
  std::lock_guard<std::mutex> lock(registry_mutex());
  registry_root() = Node{};
}

const Node* Node::find(
    std::initializer_list<std::string_view> path) const {
  const Node* n = this;
  for (std::string_view name : path) {
    auto it = n->children.find(std::string(name));
    if (it == n->children.end()) return nullptr;
    n = &it->second;
  }
  return n;
}

std::int64_t Node::counter(std::string_view name) const {
  auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

const metrics::HistData* Node::hist(std::string_view name) const {
  auto it = hists.find(std::string(name));
  return it == hists.end() ? nullptr : &it->second;
}

metrics::HistData Node::hist_total(std::string_view name) const {
  metrics::HistData total;
  if (const metrics::HistData* h = hist(name)) total.merge(*h);
  for (const auto& [child_name, child] : children) {
    total.merge(child.hist_total(name));
  }
  return total;
}

// ---- export ----

namespace {

void write_hist_json(std::ostream& os, const metrics::HistData& h) {
  os << "{\"count\":" << h.count << ",\"sum\":" << h.sum
     << ",\"buckets\":[";
  bool first = true;
  for (std::uint64_t b : h.buckets) {
    if (!first) os << ',';
    first = false;
    os << b;
  }
  os << "]}";
}

void write_node_json(std::ostream& os, const Node& node) {
  os << "{\"count\":" << node.count << ",\"total_ns\":" << node.total_ns
     << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : node.counters) {
    if (!first) os << ',';
    first = false;
    os << jsonlite::quote(name) << ':' << v;
  }
  os << '}';
  // Emitted only when present, so trees without histograms serialize
  // byte-identically to the pre-histogram format.
  if (!node.hists.empty()) {
    os << ",\"hists\":{";
    first = true;
    for (const auto& [name, h] : node.hists) {
      if (!first) os << ',';
      first = false;
      os << jsonlite::quote(name) << ':';
      write_hist_json(os, h);
    }
    os << '}';
  }
  os << ",\"children\":{";
  first = true;
  for (const auto& [name, child] : node.children) {
    if (!first) os << ',';
    first = false;
    os << jsonlite::quote(name) << ':';
    write_node_json(os, child);
  }
  os << "}}";
}

void dump_node(std::ostream& os, const Node& node, const std::string& name,
               int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  os << pad << (name.empty() ? "(root)" : name);
  if (node.count > 0) {
    const double ms = static_cast<double>(node.total_ns) / 1e6;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "  x%llu  %.3f ms",
                  static_cast<unsigned long long>(node.count), ms);
    os << buf;
    if (node.count > 1) {
      std::snprintf(buf, sizeof(buf), "  (%.3f ms/ea)",
                    ms / static_cast<double>(node.count));
      os << buf;
    }
  }
  os << '\n';
  for (const auto& [cname, v] : node.counters) {
    os << pad << "  . " << cname << " = " << v << '\n';
  }
  for (const auto& [hname, h] : node.hists) {
    const metrics::HistSummary q = metrics::summarize(h);
    os << pad << "  ~ " << hname << "  n=" << h.count
       << "  p50<=" << q.p50 << "  p90<=" << q.p90 << "  p99<=" << q.p99
       << '\n';
  }
  for (const auto& [cname, child] : node.children) {
    dump_node(os, child, cname, indent + 1);
  }
}

}  // namespace

void dump_tree(std::ostream& os, const Node& root) {
  dump_node(os, root, "", 0);
}

std::string to_json(const Node& root) {
  std::ostringstream os;
  write_node_json(os, root);
  return os.str();
}

// ---- parsing (round-trip of to_json's output) ----

namespace {

[[noreturn]] void parse_fail(const std::string& what) {
  throw CheckError("telemetry JSON parse error: " + what);
}

const jsonlite::Value& object(const jsonlite::Value& v,
                              const std::string& key) {
  if (!v.is_object()) parse_fail("'" + key + "' is not an object");
  return v;
}

/// The exact integer `v` spells; anything else, or a value outside Int,
/// is a parse error.
template <class Int>
Int integer(const jsonlite::Value& v, const std::string& key) {
  Int out = 0;
  const char* end = v.raw.data() + v.raw.size();
  const auto [ptr, ec] = std::from_chars(v.raw.data(), end, out);
  if (!v.is_number() || ec != std::errc{} || ptr != end) {
    parse_fail("'" + key + "' is not an integer in range");
  }
  return out;
}

metrics::HistData hist_from(const jsonlite::Value& v,
                            const std::string& name) {
  metrics::HistData h;
  for (const auto& [key, field] : object(v, name).members) {
    if (key == "count") {
      h.count = integer<std::uint64_t>(field, key);
    } else if (key == "sum") {
      h.sum = integer<std::uint64_t>(field, key);
    } else if (key == "buckets") {
      if (!field.is_array()) parse_fail("'buckets' is not an array");
      for (const jsonlite::Value& b : field.items) {
        h.buckets.push_back(integer<std::uint64_t>(b, key));
      }
    } else {
      parse_fail("unknown hist key '" + key + "'");
    }
  }
  return h;
}

Node node_from(const jsonlite::Value& v, const std::string& name) {
  Node node;
  for (const auto& [key, field] : object(v, name).members) {
    if (key == "count") {
      node.count = integer<std::uint64_t>(field, key);
    } else if (key == "total_ns") {
      node.total_ns = integer<std::uint64_t>(field, key);
    } else if (key == "counters") {
      for (const auto& [counter, c] : object(field, key).members) {
        node.counters[counter] = integer<std::int64_t>(c, counter);
      }
    } else if (key == "hists") {
      for (const auto& [hist, h] : object(field, key).members) {
        node.hists[hist] = hist_from(h, hist);
      }
    } else if (key == "children") {
      for (const auto& [child, c] : object(field, key).members) {
        node.children[child] = node_from(c, child);
      }
    } else {
      parse_fail("unknown key '" + key + "'");
    }
  }
  return node;
}

}  // namespace

Node parse_json(std::string_view json) {
  jsonlite::Value doc;
  try {
    doc = jsonlite::parse(json);
  } catch (const std::runtime_error& e) {
    parse_fail(e.what());
  }
  return node_from(doc, "/");
}

}  // namespace odcfp::telemetry
