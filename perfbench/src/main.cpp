// Benchmark program: runs one workload and writes its raw records (host
// stamp, set-up times, phases, per-op outcomes, spans, telemetry
// counters) as one JSON document. perfbench/run.py builds this binary,
// runs it, and turns the records into the reported metrics.
//
//   odcfp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--state-root DIR] --out FILE
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "record.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model = model.c_str();  // drop trailing NULs
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

void write_json(std::ostream& os, const RunOptions& options,
                const RunResult& r, const Tracer& tracer) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  os << "{\"host\":{\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"cpu_model\":";
  json_string(os, cpu_model());
  os << ",\"compiler\":";
  json_string(os, std::string("g++ ") + __VERSION__);
  os << ",\"build_type\":";
  json_string(os, PERFBENCH_BUILD_TYPE);
  os << ",\"pool_threads\":" << r.pool_threads << ",\"seed\":" << options.seed
     << ",\"workload\":";
  json_string(os, options.workload);
  os << "},\"peak_rss_mb\":";
  json_number(os, static_cast<double>(usage.ru_maxrss) / 1024.0);
  os << ",\"setup_s\":[";
  for (std::size_t i = 0; i < r.setup_s.size(); ++i) {
    if (i > 0) os << ',';
    json_number(os, r.setup_s[i]);
  }
  os << "],\"phases\":[";
  for (std::size_t i = 0; i < r.phases.size(); ++i) {
    const PhaseRecord& p = r.phases[i];
    os << (i > 0 ? "," : "") << "{\"wall_s\":";
    json_number(os, p.wall_s);
    os << ",\"cpu_s\":";
    json_number(os, p.cpu_s);
    os << '}';
  }
  os << "],\"ops\":[";
  for (std::size_t i = 0; i < r.ops.size(); ++i) {
    const OpRecord& op = r.ops[i];
    os << (i > 0 ? ",\n" : "\n") << "{\"id\":" << op.id
       << ",\"phase\":" << op.phase << ",\"group\":";
    json_string(os, op.group);
    os << ",\"start_ns\":" << op.start_ns << ",\"end_ns\":" << op.end_ns
       << ",\"editions\":" << op.editions << ",\"failure\":";
    json_string(os, op.failure);
    os << ",\"bits\":";
    json_number(os, op.bits);
    os << ",\"delay_pct\":";
    json_number(os, op.delay_pct);
    os << ",\"counts\":{";
    bool first = true;
    for (const auto& [name, value] : op.counts) {
      os << (first ? "" : ",");
      first = false;
      json_string(os, name);
      os << ':';
      json_number(os, value);
    }
    os << "}}";
  }
  os << "],\"spans\":[";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    os << (i > 0 ? ",\n" : "\n") << '[' << s.op << ',';
    json_string(os, s.layer);
    os << ',';
    json_string(os, s.call);
    os << ',' << s.start_ns << ',' << s.end_ns << ',' << s.parent << ']';
  }
  os << "],\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : r.counters) {
    os << (first ? "" : ",");
    first = false;
    json_string(os, name);
    os << ':' << value;
  }
  os << "}}\n";
}

int usage() {
  std::fprintf(stderr,
               "usage: odcfp_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--state-root DIR] "
               "--out FILE\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value);
    } else if (key == "--trace") {
      options.trace = std::atoi(value) != 0;
    } else if (key == "--state-root") {
      options.state_root = value;
    } else if (key == "--out") {
      out = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || options.workload.empty() || out.empty() ||
      options.seconds <= 0) {
    return usage();
  }
  try {
    Tracer tracer;
    const RunResult result = run_workload(options, tracer);
    std::ofstream os(out);
    write_json(os, options, result, tracer);
    os.close();
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "odcfp_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
