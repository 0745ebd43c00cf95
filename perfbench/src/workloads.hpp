// The four benchmark workloads. Each drives the odcfp public API from
// this process in a closed loop, times whole balanced blocks of ops, and
// checks every output; see perfbench/README.md for why each exists.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "record.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory receiving the service daemon's fresh per-run state dir.
  std::string state_root = ".";
};

struct RunResult {
  /// Wall time of each set-up repetition (inputs, server, warm-up ops).
  std::vector<double> setup_s;
  std::vector<PhaseRecord> phases;
  std::vector<OpRecord> ops;
  /// Telemetry counters summed over the traced phase (empty untraced).
  std::map<std::string, std::int64_t> counters;
  std::size_t pool_threads = 0;
};

/// Sets up (several times), warms up, and measures one workload. Throws
/// std::runtime_error on an unknown workload or a set-up failure; output
/// check failures are recorded per op, never thrown.
RunResult run_workload(const RunOptions& options, Tracer& tracer);

}  // namespace perfbench
