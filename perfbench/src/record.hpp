// In-memory records of one benchmark run: per-op outcomes, the spans the
// benchmark opens around each public library call, and a tiny JSON writer
// that dumps them at exit for perfbench/run.py to aggregate.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One span: a public call the benchmark made on behalf of op `op`.
/// `parent` indexes the enclosing span (-1 for an op's root span).
struct SpanRecord {
  std::uint64_t op = 0;
  const char* layer = "";
  const char* call = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
};

/// Span recorder. Disabled, open() returns -1 and records nothing, so
/// untraced runs pay one branch per call. Every workload issues its ops
/// from one client thread, so it needs no lock.
class Tracer {
 public:
  void set_enabled(bool on) { on_ = on; }

  std::int32_t open(std::uint64_t op, const char* layer, const char* call,
                    std::int32_t parent) {
    if (!on_) return -1;
    const std::int64_t start = now_ns();
    spans_.push_back({op, layer, call, start, start, parent});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  bool on_ = false;
  std::vector<SpanRecord> spans_;
};

/// RAII span around one call on the calling thread.
class Span {
 public:
  Span(Tracer& tracer, std::uint64_t op, const char* layer, const char* call,
       std::int32_t parent = -1)
      : tracer_(tracer), id_(tracer.open(op, layer, call, parent)) {}
  ~Span() { tracer_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::int32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

/// Outcome of one op. `start_ns` is when the op was issued, `end_ns` when
/// its last output was in hand.
struct OpRecord {
  std::uint64_t id = 0;
  int phase = 0;
  std::string group;  ///< balanced-share key: circuit or delay constraint
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::size_t editions = 0;  ///< shipped (and proven, where the op verifies)
  std::string failure;       ///< empty when every output check passed
  double bits = 0;           ///< capacity per shipped edition / bits kept
  double delay_pct = 0;      ///< mean delay overhead of the outputs
  std::map<std::string, double> counts;  ///< per-layer work counts
};

/// A timed stretch of ops: phase 0 untraced, phase 1 (if any) traced.
struct PhaseRecord {
  double wall_s = 0;
  double cpu_s = 0;
};

// ---------------------------------------------------------------- JSON

inline void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
  os << '"';
}

inline void json_number(std::ostream& os, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

}  // namespace perfbench
