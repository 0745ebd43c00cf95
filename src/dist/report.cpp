#include "dist/report.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_lite.hpp"
#include "common/metrics.hpp"
#include "dist/status.hpp"

namespace odcfp::dist {

namespace {

/// Milliseconds with microsecond resolution, for human rendering only.
std::string ms_text(std::uint64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1'000'000),
                static_cast<unsigned long long>((ns / 1'000) % 1'000));
  return buf;
}

bool contains(const std::string& haystack, const char* needle) {
  return haystack.find(needle) != std::string::npos;
}

const char* shard_state_name(ShardState s) {
  switch (s) {
    case ShardState::kUnassigned: return "unassigned";
    case ShardState::kLeased: return "leased";
    case ShardState::kDone: return "done";
  }
  return "unassigned";
}

}  // namespace

RunReport analyze_run(const std::string& run_dir,
                      const ReportOptions& options) {
  RunReport report;
  const RunStatusView run = load_run(run_dir);
  report.buyers = run.buyers;
  report.lease_error = run.lease_error;
  if (!run.have_spec && !run.have_leases) {
    report.status = Status::kMalformedInput;
    report.message = "report: '" + run_dir +
                     "' has neither a readable run.spec nor a lease journal";
    if (!run.lease_error.empty()) {
      report.message += " (" + run.lease_error + ")";
    }
    return report;
  }
  report.state = run.state;
  report.committed = run.committed;

  const LeaseChains& chains = run.chains;
  const std::size_t num_shards = run.shards.size();
  report.shards.resize(num_shards);
  if (run.have_leases) {
    report.makespan_ns = chains.last_wall_ns >= chains.first_wall_ns
                             ? chains.last_wall_ns - chains.first_wall_ns
                             : 0;
  } else {
    // Without a lease journal the shard journals bound the run: from the
    // first wall-stamped lifecycle record of any shard to the last.
    std::uint64_t first = 0, last = 0;
    for (const ShardStatusView& shard : run.shards) {
      if (shard.first_wall_ns == 0) continue;
      if (first == 0 || shard.first_wall_ns < first) {
        first = shard.first_wall_ns;
      }
      last = std::max(last, shard.last_wall_ns);
    }
    report.makespan_ns = last > first ? last - first : 0;
  }

  // ---- per-shard lease chain, costs, journal numbers, heartbeats ----
  for (std::size_t s = 0; s < num_shards; ++s) {
    const ShardStatusView& shard = run.shards[s];
    ShardReportRow& row = report.shards[s];
    row.shard = s;
    row.state = shard.state;
    row.chain = chains.shards[s];
    for (const LeaseInterval& lease : row.chain) {
      row.epochs = std::max(row.epochs, lease.epoch);
      if (!lease.closed) row.open = true;
      row.lease_ns += lease.duration_ns();
      if (lease.revoked) {
        row.lost_ns += lease.duration_ns();
        if (contains(lease.detail, "signal")) row.killed = true;
        if (contains(lease.detail, "heartbeat")) row.wedged = true;
      }
      if (lease.begin_wall_ns != 0) {
        row.end_wall_ns = std::max(row.end_wall_ns,
                                   lease.begin_wall_ns + lease.duration_ns());
      }
    }
    // Without leases a shard's chain is its journal's records.
    if (!run.have_leases) row.end_wall_ns = shard.last_wall_ns;
    row.regrants = row.chain.size() > 1
                       ? static_cast<std::uint64_t>(row.chain.size()) - 1
                       : 0;
    report.regrant_events += row.regrants;
    report.lost_ns += row.lost_ns;

    row.committed = shard.committed;
    row.eps_milli = shard.eps_milli;
    metrics::HistData latency;
    for (const EditionSpan& span : shard.editions) {
      latency.record(span.end_wall_ns - span.begin_wall_ns);
    }
    if (!latency.empty()) {
      row.have_latency = true;
      row.p50_ns = latency.quantile_permille(500);
      row.p99_ns = latency.quantile_permille(990);
    }

    std::vector<std::uint64_t> gaps;
    std::uint64_t prev = 0;
    for (const std::uint64_t hb : shard.journal.heartbeat_walls) {
      if (hb == 0) continue;
      if (prev != 0 && hb >= prev) gaps.push_back(hb - prev);
      prev = hb;
      ++row.heartbeats;
    }
    if (!gaps.empty()) {
      std::sort(gaps.begin(), gaps.end());
      row.max_heartbeat_gap_ns = gaps.back();
      row.median_heartbeat_gap_ns = gaps[gaps.size() / 2];
    }
  }

  // ---- critical path: the chain that ends last, from its start ----
  for (std::size_t s = 0; s < num_shards; ++s) {
    const ShardReportRow& row = report.shards[s];
    if (row.end_wall_ns == 0) continue;
    if (report.critical_path_shard == SIZE_MAX ||
        row.end_wall_ns >
            report.shards[report.critical_path_shard].end_wall_ns) {
      report.critical_path_shard = s;
    }
  }
  if (report.critical_path_shard != SIZE_MAX) {
    const ShardReportRow& cp = report.shards[report.critical_path_shard];
    // Its first grant, or without leases its journal's first record.
    std::uint64_t start = run.have_leases
                              ? 0
                              : run.shards[report.critical_path_shard]
                                    .first_wall_ns;
    for (const LeaseInterval& iv : cp.chain) {
      if (iv.begin_wall_ns != 0 &&
          (start == 0 || iv.begin_wall_ns < start)) {
        start = iv.begin_wall_ns;
      }
    }
    if (start != 0 && cp.end_wall_ns >= start) {
      report.critical_path_ns = cp.end_wall_ns - start;
    }
  }

  // ---- anomaly flags ----
  // Latency outliers need a baseline: the median of the shards' p99s.
  std::vector<std::uint64_t> p99s;
  for (const ShardReportRow& row : report.shards) {
    if (row.have_latency && row.p99_ns != 0) p99s.push_back(row.p99_ns);
  }
  std::uint64_t median_p99 = 0;
  if (p99s.size() >= 2) {
    std::sort(p99s.begin(), p99s.end());
    median_p99 = p99s[p99s.size() / 2];
  }
  for (const ShardReportRow& row : report.shards) {
    const std::string tag = "shard " + std::to_string(row.shard);
    for (const LeaseInterval& iv : row.chain) {
      if (iv.revoked) {
        report.anomalies.push_back(
            tag + " epoch " + std::to_string(iv.epoch) + " revoked (" +
            (iv.detail.empty() ? std::string("no detail") : iv.detail) +
            "), " + ms_text(iv.duration_ns()) + " ms of work redone");
      }
    }
    if (median_p99 != 0 && row.have_latency &&
        static_cast<double>(row.p99_ns) >
            options.latency_k * static_cast<double>(median_p99)) {
      report.anomalies.push_back(
          tag + " p99 edition latency " + ms_text(row.p99_ns) +
          " ms exceeds " + std::to_string(options.latency_k) +
          "x the run median p99 " + ms_text(median_p99) + " ms");
    }
    if (row.heartbeats >= 4 && row.median_heartbeat_gap_ns != 0 &&
        row.max_heartbeat_gap_ns > 5 * row.median_heartbeat_gap_ns) {
      report.anomalies.push_back(
          tag + " heartbeat gap " + ms_text(row.max_heartbeat_gap_ns) +
          " ms is over 5x its median cadence " +
          ms_text(row.median_heartbeat_gap_ns) + " ms");
    }
  }

  report.message =
      report.state + ": " + std::to_string(num_shards) + " shard(s), " +
      std::to_string(report.committed) + "/" +
      std::to_string(report.buyers) + " committed, " +
      std::to_string(report.regrant_events) + " regrant(s), " +
      std::to_string(report.anomalies.size()) + " anomaly flag(s)";
  return report;
}

void read_liveness(const std::string& run_dir, std::int64_t stall_ms,
                   RunReport* report) {
  struct timespec now;
  if (::clock_gettime(CLOCK_REALTIME, &now) != 0) return;
  const std::int64_t now_ms = static_cast<std::int64_t>(now.tv_sec) * 1000 +
                              now.tv_nsec / 1'000'000;
  for (ShardReportRow& row : report->shards) {
    // Every journal record is an fsync'd append that bumps the mtime:
    // the growth the supervisor's watcher sees, read from the disk.
    struct stat st;
    if (::stat(shard_journal_path(run_dir, row.shard).c_str(), &st) != 0) {
      continue;
    }
    const std::int64_t mtime_ms =
        static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000 +
        st.st_mtim.tv_nsec / 1'000'000;
    row.heartbeat_age_ms = std::max<std::int64_t>(now_ms - mtime_ms, 0);
    row.stalled = row.state == ShardState::kLeased &&
                  row.heartbeat_age_ms >= stall_ms;
  }
}

void fold_stitch(const StitchResult& stitch, RunReport* report) {
  for (const ShardStitchInfo& info : stitch.shards) {
    if (info.shard >= report->shards.size()) continue;
    ShardReportRow& row = report->shards[info.shard];
    row.trace_dropped = info.dropped_events;
    row.missing_traces = info.missing_traces;
    const std::string tag = "shard " + std::to_string(info.shard);
    if (info.dropped_events != 0) {
      report->anomalies.push_back(
          tag + " recorder dropped " +
          std::to_string(info.dropped_events) +
          " trace event(s) on overflow");
    }
    if (info.missing_traces != 0) {
      report->anomalies.push_back(
          tag + " is missing trace file(s) for " +
          std::to_string(info.missing_traces) + " granted epoch(s)");
    }
  }
}

std::string render_report_table(const RunReport& report) {
  std::ostringstream os;
  os << "run: " << report.state << "  buyers: " << report.committed << "/"
     << report.buyers << "  makespan: " << ms_text(report.makespan_ns)
     << " ms  regrants: " << report.regrant_events
     << "  redo cost: " << ms_text(report.lost_ns) << " ms\n";
  if (!report.lease_error.empty()) {
    os << "lease journal unusable: " << report.lease_error << "\n";
  }
  if (report.critical_path_shard != SIZE_MAX) {
    os << "critical path: shard " << report.critical_path_shard << " ("
       << ms_text(report.critical_path_ns) << " ms";
    const ShardReportRow& cp = report.shards[report.critical_path_shard];
    for (const LeaseInterval& iv : cp.chain) {
      os << "; e" << iv.epoch << " " << iv.end_name() << " "
         << ms_text(iv.duration_ns()) << " ms";
    }
    os << ")\n";
  }
  char line[224];
  std::snprintf(line, sizeof(line),
                "%-6s %-10s %-6s %-8s %-9s %-9s %-12s %-12s %-12s %-12s "
                "%-9s %s\n",
                "shard", "state", "epochs", "flags", "committed", "eps",
                "lease_ms", "lost_ms", "p50_ms", "p99_ms", "hb_age_ms",
                "traces");
  os << line;
  for (const ShardReportRow& row : report.shards) {
    std::string flags;
    if (row.killed) flags += 'K';
    if (row.wedged) flags += 'W';
    if (row.open) flags += 'O';
    if (flags.empty()) flags = "-";
    std::string traces = std::to_string(row.missing_traces) + " missing";
    if (row.trace_dropped != 0) {
      traces += ", " + std::to_string(row.trace_dropped) + " dropped";
    }
    if (row.stalled) traces += "  STALLED";
    std::snprintf(
        line, sizeof(line),
        "%-6zu %-10s %-6llu %-8s %-9llu %-9.3f %-12s %-12s %-12s %-12s "
        "%-9s %s\n",
        row.shard, shard_state_name(row.state),
        static_cast<unsigned long long>(row.epochs), flags.c_str(),
        static_cast<unsigned long long>(row.committed),
        static_cast<double>(row.eps_milli) / 1000.0,
        ms_text(row.lease_ns).c_str(), ms_text(row.lost_ns).c_str(),
        (row.have_latency ? ms_text(row.p50_ns) : std::string("-")).c_str(),
        (row.have_latency ? ms_text(row.p99_ns) : std::string("-")).c_str(),
        (row.heartbeat_age_ms < 0 ? std::string("-")
                                  : std::to_string(row.heartbeat_age_ms))
            .c_str(),
        traces.c_str());
    os << line;
  }
  if (report.anomalies.empty()) {
    os << "anomalies: none\n";
  } else {
    os << "anomalies:\n";
    for (const std::string& a : report.anomalies) {
      os << "  ! " << a << "\n";
    }
  }
  return os.str();
}

std::string render_report_json(const RunReport& report) {
  std::ostringstream os;
  os << "{\"odcfp_run_report\":1,\"state\":";
  os << jsonlite::quote(report.state);
  os << ",\"buyers\":" << report.buyers
     << ",\"committed\":" << report.committed;
  if (!report.lease_error.empty()) {
    os << ",\"lease_error\":" << jsonlite::quote(report.lease_error);
  }
  os << ",\"makespan_ns\":" << report.makespan_ns
     << ",\"critical_path_shard\":";
  if (report.critical_path_shard == SIZE_MAX) {
    os << -1;
  } else {
    os << report.critical_path_shard;
  }
  os << ",\"critical_path_ns\":" << report.critical_path_ns
     << ",\"regrant_events\":" << report.regrant_events
     << ",\"lost_ns\":" << report.lost_ns << ",\"shards\":[";
  for (std::size_t s = 0; s < report.shards.size(); ++s) {
    const ShardReportRow& row = report.shards[s];
    if (s != 0) os << ',';
    os << "{\"shard\":" << row.shard << ",\"state\":"
       << jsonlite::quote(shard_state_name(row.state))
       << ",\"epochs\":" << row.epochs
       << ",\"regrants\":" << row.regrants
       << ",\"killed\":" << (row.killed ? "true" : "false")
       << ",\"wedged\":" << (row.wedged ? "true" : "false")
       << ",\"open\":" << (row.open ? "true" : "false")
       << ",\"committed\":" << row.committed
       << ",\"eps_milli\":" << row.eps_milli
       << ",\"lease_ns\":" << row.lease_ns
       << ",\"lost_ns\":" << row.lost_ns
       << ",\"p50_ns\":" << row.p50_ns << ",\"p99_ns\":" << row.p99_ns
       << ",\"heartbeats\":" << row.heartbeats
       << ",\"max_heartbeat_gap_ns\":" << row.max_heartbeat_gap_ns
       << ",\"heartbeat_age_ms\":" << row.heartbeat_age_ms
       << ",\"stalled\":" << (row.stalled ? "true" : "false")
       << ",\"trace_dropped\":" << row.trace_dropped
       << ",\"missing_traces\":" << row.missing_traces << ",\"chain\":[";
    for (std::size_t k = 0; k < row.chain.size(); ++k) {
      const LeaseInterval& iv = row.chain[k];
      if (k != 0) os << ',';
      os << "{\"epoch\":" << iv.epoch << ",\"pid\":" << iv.pid
         << ",\"duration_ns\":" << iv.duration_ns() << ",\"end\":";
      os << jsonlite::quote(iv.end_name());
      os << ",\"detail\":";
      os << jsonlite::quote(iv.detail);
      os << '}';
    }
    os << "]}";
  }
  os << "],\"anomalies\":[";
  for (std::size_t i = 0; i < report.anomalies.size(); ++i) {
    if (i != 0) os << ',';
    os << jsonlite::quote(report.anomalies[i]);
  }
  os << "]}\n";
  return os.str();
}

}  // namespace odcfp::dist
