#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/atomic_io.hpp"
#include "common/check.hpp"
#include "common/json_lite.hpp"
#include "common/log.hpp"
#include "common/telemetry.hpp"
#include "common/trace.hpp"

namespace odcfp::bench {

const StaticTimingAnalyzer& sta() {
  static const StaticTimingAnalyzer analyzer;
  return analyzer;
}

const PowerAnalyzer& power() {
  static const PowerAnalyzer analyzer;
  return analyzer;
}

PreparedCircuit prepare(const std::string& name,
                        const LocationFinderOptions& opts) {
  PreparedCircuit p{name, make_benchmark(name), {}, {}, 0};
  p.baseline = Baseline::measure(p.golden, sta(), power());
  p.locations = find_locations(p.golden, opts);
  p.capacity_bits = total_capacity_bits(p.locations);
  return p;
}

FullEmbedResult embed_all_and_measure(const PreparedCircuit& prepared,
                                      std::size_t sim_words) {
  Netlist work = prepared.golden;  // value copy
  FingerprintEmbedder embedder(work, prepared.locations);
  embedder.apply_all_generic();
  FullEmbedResult result;
  result.sites = embedder.num_applied();
  result.overheads =
      Overheads::measure(work, prepared.baseline, sta(), power());
  result.sim_equal =
      random_sim_equal(prepared.golden, work, sim_words, /*seed=*/17);
  ODCFP_CHECK_MSG(result.sim_equal,
                  "fingerprinted '" << prepared.name
                                    << "' is NOT equivalent to golden");
  return result;
}

bool smoke() {
  const char* env = std::getenv("ODCFP_BENCH_SMOKE");
  return env != nullptr && std::strcmp(env, "1") == 0;
}

std::vector<BenchmarkSpec> bench_circuits() {
  std::vector<BenchmarkSpec> specs = table2_benchmarks();
  if (!smoke()) return specs;
  // Smoke mode: the two smallest circuits exercise the full flow (and
  // produce a schema-complete artifact) in seconds.
  std::sort(specs.begin(), specs.end(),
            [](const BenchmarkSpec& a, const BenchmarkSpec& b) {
              return a.paper_gates < b.paper_gates;
            });
  if (specs.size() > 2) specs.resize(2);
  return specs;
}

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {}

BenchReport::~BenchReport() {
  try {
    write();
  } catch (...) {
    // A failed artifact write must not mask the bench's own exit path.
  }
}

BenchReport::Row& BenchReport::add_row(const std::string& name) {
  rows_.emplace_back(name);
  return rows_.back();
}

void BenchReport::write() {
  if (written_) return;
  written_ = true;
  const char* toggle = std::getenv("ODCFP_BENCH_JSON");
  if (toggle != nullptr && std::strcmp(toggle, "0") == 0) return;
  const char* dir = std::getenv("ODCFP_BENCH_JSON_DIR");
  const std::string path =
      std::string(dir != nullptr && *dir != '\0' ? dir : ".") + "/BENCH_" +
      name_ + ".json";

  std::ostringstream os;
  os << "{\n  \"bench\": " << jsonlite::quote(name_);
  os << ",\n  \"schema_version\": 3";
  os << ",\n  \"smoke\": " << (smoke() ? "true" : "false");
  // Host metadata (schema v2): labels only — tools/bench_diff.py must
  // never gate on them, they exist so a surprising artifact can be
  // traced back to the machine and toolchain that produced it.
  os << ",\n  \"host\": {\"threads\": "
     << std::thread::hardware_concurrency() << ", \"os\": \""
#if defined(__linux__)
     << "linux"
#elif defined(__APPLE__)
     << "darwin"
#elif defined(_WIN32)
     << "windows"
#else
     << "unknown"
#endif
     << "\", \"compiler\": \""
#if defined(__clang__)
     << "clang " << __clang_major__ << "." << __clang_minor__
#elif defined(__GNUC__)
     << "gcc " << __GNUC__ << "." << __GNUC_MINOR__
#else
     << "unknown"
#endif
     << "\"}";
  // Events the trace recorder had to drop (0 when tracing was off): a
  // nonzero value flags that the ODCFP_TRACE timeline for this run is a
  // truncated prefix and ODCFP_TRACE_LIMIT should be raised.
  os << ",\n  \"trace_dropped_events\": " << trace::dropped_events();
  os << ",\n  \"rows\": [";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const Row& row = rows_[r];
    os << (r == 0 ? "\n" : ",\n") << "    {\"name\": "
       << jsonlite::quote(row.name_) << ", \"labels\": {";
    bool first = true;
    for (const auto& [k, v] : row.labels_) {
      if (!first) os << ", ";
      first = false;
      os << jsonlite::quote(k) << ": " << jsonlite::quote(v);
    }
    os << "}, \"metrics\": {";
    first = true;
    for (const auto& [k, v] : row.metrics_) {
      if (!first) os << ", ";
      first = false;
      os << jsonlite::quote(k) << ": " << jsonlite::number(v);
    }
    os << "}}";
  }
  os << "\n  ]";
  if (telemetry::enabled()) {
    // Mirror the trace recorder's drop count into the gated telemetry
    // tree: the baseline records 0, so any trace loss creeping into a
    // smoke bench fails bench_diff.py instead of silently truncating
    // the timeline.
    telemetry::count("trace.dropped_events",
                     static_cast<std::int64_t>(trace::dropped_events()));
    telemetry::flush_thread();
    os << ",\n  \"telemetry\": " << telemetry::to_json(telemetry::snapshot());
  }
  os << "\n}\n";

  // Atomic publish: a crashed or killed bench run must never leave a
  // truncated BENCH_*.json for bench_diff.py to trip over.
  const atomic_io::WriteResult written =
      atomic_io::write_file_atomic(path, os.str());
  if (!written.ok) {
    log::error("bench.artifact_write_failed")
        .field("path", path)
        .field("error", written.error);
    return;
  }
  std::fprintf(stderr, "bench: wrote %s\n", path.c_str());
  log::info("bench.artifact_written")
      .field("bench", name_)
      .field("path", path)
      .field("rows", rows_.size());
}

std::string pct(double fraction, int decimals) {
  const double p = fraction * 100.0;
  char buf[48];
  // Fixed decimals would round a small-but-real overhead to "0.00%";
  // switch to significant digits below half an ulp of the fixed format.
  if (std::isfinite(p) && p != 0.0 &&
      std::fabs(p) < 0.5 * std::pow(10.0, -decimals)) {
    std::snprintf(buf, sizeof(buf), "%.3g%%", p);
  } else {
    std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, p);
  }
  return buf;
}

void print_rule(std::size_t width) {
  std::string s(width, '-');
  std::printf("%s\n", s.c_str());
}

}  // namespace odcfp::bench
