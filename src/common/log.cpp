#include "common/log.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <ostream>

#include "common/clock.hpp"
#include "common/json_lite.hpp"
#include "common/recorder.hpp"
#include "common/telemetry.hpp"

namespace odcfp::log {

namespace {

Level parse_level(const char* s) {
  if (s == nullptr || *s == '\0') return Level::kInfo;
  if (std::strcmp(s, "debug") == 0 || std::strcmp(s, "0") == 0) {
    return Level::kDebug;
  }
  if (std::strcmp(s, "info") == 0 || std::strcmp(s, "1") == 0) {
    return Level::kInfo;
  }
  if (std::strcmp(s, "warn") == 0 || std::strcmp(s, "warning") == 0 ||
      std::strcmp(s, "2") == 0) {
    return Level::kWarn;
  }
  if (std::strcmp(s, "error") == 0 || std::strcmp(s, "3") == 0) {
    return Level::kError;
  }
  if (std::strcmp(s, "off") == 0 || std::strcmp(s, "none") == 0) {
    return Level::kOff;
  }
  return Level::kInfo;
}

struct Global {
  std::atomic<int> level{static_cast<int>(Level::kInfo)};
  std::mutex mu;          ///< Guards file / stream / line appends.
  std::FILE* file = nullptr;   ///< ODCFP_LOG destination (may be stderr).
  bool owns_file = false;
  bool configured = false;     ///< ODCFP_LOG was set (any destination).
  std::ostream* stream = nullptr;  ///< set_stream override (tests).
};

/// Leaked so records emitted from static destructors / atexit handlers
/// (e.g. the ODCFP_TRACE flush) still have a live sink.
Global& g() {
  static Global* instance = [] {
    Global* G = new Global();
    const recorder::Config& config = recorder::config();
    G->level.store(
        static_cast<int>(parse_level(config.log_level.c_str())),
        std::memory_order_relaxed);
    const char* dest = config.log_path.c_str();
    if (*dest != '\0') {
      G->configured = true;
      if (std::strcmp(dest, "stderr") == 0) {
        G->file = stderr;
      } else if (std::strcmp(dest, "stdout") == 0 ||
                 std::strcmp(dest, "-") == 0) {
        G->file = stdout;
      } else {
        G->file = std::fopen(dest, "a");
        if (G->file == nullptr) {
          std::fprintf(stderr,
                       "odcfp: cannot open ODCFP_LOG=%s, logging to "
                       "stderr\n",
                       dest);
          G->file = stderr;
        } else {
          G->owns_file = true;
        }
      }
      // Self-description first: the anchor pair lets a stitcher place
      // every subsequent ts_ns on the cross-process timeline.
      const std::string anchor = clock_anchor_line();
      std::fwrite(anchor.data(), 1, anchor.size(), G->file);
      std::fflush(G->file);
    }
    return G;
  }();
  return *instance;
}

/// A record's reserved keys, with the object left open for its fields.
std::string open_record(Level lv, const char* event, std::string_view span) {
  std::string line;
  line.reserve(160);
  // Anchored wall time: same epoch as the wall clock, but advancing on
  // the steady clock so it orders consistently with trace timestamps
  // and the dist layer's wall= fields (see src/common/clock.*).
  line += "{\"ts_ns\":";
  line += std::to_string(clocks::anchored_wall_now_ns());
  line += ",\"level\":\"";
  line += to_string(lv);
  line += "\",\"event\":";
  jsonlite::append_quoted(line, event);
  line += ",\"tid\":";
  line += std::to_string(recorder::thread_index());
  line += ",\"span\":";
  jsonlite::append_quoted(line, span);
  return line;
}

}  // namespace

std::string clock_anchor_line() {
  // Composed without a Record: this runs during the log global's own
  // initialization, where a Record would re-enter g().
  const clocks::ClockAnchor& a = clocks::process_anchor();
  std::string line = open_record(Level::kInfo, "clock_anchor", "");
  line += ",\"wall_ns\":";
  line += std::to_string(a.wall_ns);
  line += ",\"steady_ns\":";
  line += std::to_string(a.steady_ns);
  line += ",\"pid\":";
  line += std::to_string(static_cast<long long>(::getpid()));
  line += "}\n";
  return line;
}

const char* to_string(Level level) {
  switch (level) {
    case Level::kDebug: return "debug";
    case Level::kInfo: return "info";
    case Level::kWarn: return "warn";
    case Level::kError: return "error";
    case Level::kOff: return "off";
  }
  return "?";
}

Level level() {
  return static_cast<Level>(g().level.load(std::memory_order_relaxed));
}

void set_level(Level lv) {
  g().level.store(static_cast<int>(lv), std::memory_order_relaxed);
}

bool enabled(Level lv) {
  Global& G = g();
  if (static_cast<int>(lv) < G.level.load(std::memory_order_relaxed)) {
    return false;
  }
  if (lv == Level::kOff) return false;
  if (G.stream != nullptr || G.configured) return true;
  // No sink configured: only warnings and errors reach stderr.
  return lv >= Level::kWarn;
}

void set_stream(std::ostream* os) {
  Global& G = g();
  std::lock_guard<std::mutex> lock(G.mu);
  G.stream = os;
}

Record::Record(Level lv, const char* event) : level_(lv) {
  if (!enabled(lv)) return;
  active_ = true;
  // The join key: the recorder's open-span path of this thread, in the
  // span names the telemetry tree and the trace timeline use.
  std::string path;
  for (const char* span : telemetry::current_path()) {
    path += '/';
    path += span;
  }
  line_ = open_record(lv, event, path);
}

Record::Record(Record&& other) noexcept
    : active_(other.active_),
      level_(other.level_),
      line_(std::move(other.line_)) {
  other.active_ = false;
}

Record::~Record() {
  if (!active_) return;
  line_ += "}\n";
  Global& G = g();
  std::lock_guard<std::mutex> lock(G.mu);
  if (G.stream != nullptr) {
    G.stream->write(line_.data(),
                    static_cast<std::streamsize>(line_.size()));
    if (level_ >= Level::kWarn) G.stream->flush();
    return;
  }
  std::FILE* f = G.file != nullptr ? G.file : stderr;
  std::fwrite(line_.data(), 1, line_.size(), f);
  if (level_ >= Level::kWarn) std::fflush(f);
}

Record& Record::field(const char* key, std::string_view value) {
  if (!active_) return *this;
  line_ += ',';
  jsonlite::append_quoted(line_, key);
  line_ += ':';
  jsonlite::append_quoted(line_, value);
  return *this;
}

Record& Record::field(const char* key, const char* value) {
  return field(key, std::string_view(value != nullptr ? value : ""));
}

Record& Record::field(const char* key, std::int64_t value) {
  if (!active_) return *this;
  line_ += ',';
  jsonlite::append_quoted(line_, key);
  line_ += ':';
  line_ += std::to_string(value);
  return *this;
}

Record& Record::field(const char* key, std::uint64_t value) {
  if (!active_) return *this;
  line_ += ',';
  jsonlite::append_quoted(line_, key);
  line_ += ':';
  line_ += std::to_string(value);
  return *this;
}

Record& Record::field(const char* key, double value) {
  if (!active_) return *this;
  line_ += ',';
  jsonlite::append_quoted(line_, key);
  line_ += ':';
  line_ += jsonlite::number(value);
  return *this;
}

Record& Record::field(const char* key, bool value) {
  if (!active_) return *this;
  line_ += ',';
  jsonlite::append_quoted(line_, key);
  line_ += ':';
  line_ += value ? "true" : "false";
  return *this;
}

}  // namespace odcfp::log
