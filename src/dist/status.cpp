#include "dist/status.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

#include "common/atomic_io.hpp"
#include "common/fault.hpp"
#include "common/json_lite.hpp"
#include "common/record_log.hpp"

namespace odcfp::dist {

namespace {

constexpr const char* kMagic = "odcfp-status 1";

std::string status_payload(const ShardStatus& st) {
  std::ostringstream os;
  os << "shard=" << st.shard << " epoch=" << st.epoch << " pid=" << st.pid
     << " begin=" << st.range_begin << " end=" << st.range_end
     << " committed=" << st.committed << " recovered=" << st.recovered
     << " elapsed_ms=" << st.elapsed_ms << " eps_milli=" << st.eps_milli
     << " done=" << st.done << " wall=" << st.wall_ns
     << " hist=" << st.edition_ns.count << ':'
     << st.edition_ns.sum << ':';
  for (std::size_t i = 0; i < st.edition_ns.buckets.size(); ++i) {
    if (i > 0) os << ',';
    os << st.edition_ns.buckets[i];
  }
  return os.str();
}

/// `<count>:<sum>:<b0>,<b1>,...`
bool parse_hist(std::string_view text, metrics::HistData* out) {
  const std::size_t a = text.find(':');
  const std::size_t b = a == std::string_view::npos ? a : text.find(':', a + 1);
  if (b == std::string_view::npos ||
      !record_log::parse_u64(text.substr(0, a), &out->count) ||
      !record_log::parse_u64(text.substr(a + 1, b - a - 1), &out->sum)) {
    return false;
  }
  for (text.remove_prefix(b + 1); !text.empty();) {
    const std::size_t comma = text.find(',');
    std::uint64_t bucket = 0;
    if (!record_log::parse_u64(text.substr(0, comma), &bucket)) return false;
    out->buckets.push_back(bucket);
    text.remove_prefix(comma == std::string_view::npos ? text.size()
                                                       : comma + 1);
  }
  return true;
}

bool parse_status_payload(std::string_view payload, ShardStatus* out) {
  record_log::Fields in(payload);
  std::string hist;
  return in.u64("shard", &out->shard) && in.u64("epoch", &out->epoch) &&
         in.u64("pid", &out->pid) && in.u64("begin", &out->range_begin) &&
         in.u64("end", &out->range_end) &&
         in.u64("committed", &out->committed) &&
         in.u64("recovered", &out->recovered) &&
         in.u64("elapsed_ms", &out->elapsed_ms) &&
         in.u64("eps_milli", &out->eps_milli) && in.u64("done", &out->done) &&
         in.optional_u64("wall", &out->wall_ns) && in.tail("hist", &hist) &&
         parse_hist(hist, &out->edition_ns);
}

const char* shard_state_name(ShardState s) {
  switch (s) {
    case ShardState::kUnassigned: return "unassigned";
    case ShardState::kLeased: return "leased";
    case ShardState::kDone: return "done";
  }
  return "unassigned";
}

/// Milliseconds since `path` was last modified; -1 when it is absent.
/// Journal appends bump mtime, so this is the heartbeat age the
/// supervisor's growth watcher sees — just derived from the filesystem,
/// which is what lets a post-mortem inspector compute it too.
std::int64_t mtime_age_ms(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return -1;
  struct timespec now;
  if (::clock_gettime(CLOCK_REALTIME, &now) != 0) return -1;
  const std::int64_t mtime_ms =
      static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000 +
      st.st_mtim.tv_nsec / 1'000'000;
  const std::int64_t now_ms =
      static_cast<std::int64_t>(now.tv_sec) * 1000 +
      now.tv_nsec / 1'000'000;
  return now_ms >= mtime_ms ? now_ms - mtime_ms : 0;
}

void write_hist_with_quantiles(std::ostringstream& os,
                               const metrics::HistData& h) {
  const metrics::HistSummary q = metrics::summarize(h);
  os << "{\"count\":" << h.count << ",\"sum\":" << h.sum
     << ",\"buckets\":[";
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    if (i > 0) os << ',';
    os << h.buckets[i];
  }
  os << "],\"p50\":" << q.p50 << ",\"p90\":" << q.p90
     << ",\"p99\":" << q.p99 << '}';
}

}  // namespace

std::string status_snapshot_path(const std::string& run_dir,
                                 std::size_t shard) {
  std::ostringstream os;
  os << run_dir << "/status_" << shard << ".snap";
  return os.str();
}

std::string run_status_path(const std::string& run_dir) {
  return run_dir + "/run_status.json";
}

Outcome<bool> write_status_snapshot(const std::string& path,
                                    const ShardStatus& status) {
  ODCFP_FAULT_POINT("dist.status.publish");
  const atomic_io::WriteResult wr =
      record_log::write_one(path, kMagic, 'S', status_payload(status));
  if (!wr.ok) {
    return Outcome<bool>::exhausted("status snapshot write failed: " +
                                    wr.error);
  }
  return Outcome<bool>::success(true);
}

Outcome<ShardStatus> read_status_snapshot(const std::string& path) {
  ShardStatus st;
  const Outcome<bool> read = record_log::read_one(
      path, kMagic, 'S', "status snapshot",
      [&](std::string_view payload) {
        return parse_status_payload(payload, &st);
      });
  if (!read.ok()) return Outcome<ShardStatus>::malformed(read.message());
  return Outcome<ShardStatus>::success(std::move(st));
}

std::string render_run_status_json(const RunStatusView& view) {
  std::ostringstream os;
  os << "{\"odcfp_run_status\":1,\"state\":" << jsonlite::quote(view.state)
     << ",\"buyers\":" << view.buyers
     << ",\"committed\":" << view.committed;
  if (!view.lease_error.empty()) {
    os << ",\"lease_error\":" << jsonlite::quote(view.lease_error);
  }
  os << ",\"shards\":[";
  for (std::size_t i = 0; i < view.shards.size(); ++i) {
    const ShardStatusView& sv = view.shards[i];
    if (i > 0) os << ',';
    os << "{\"shard\":" << sv.shard << ",\"state\":"
       << jsonlite::quote(shard_state_name(sv.state))
       << ",\"epoch\":" << sv.epoch;
    if (sv.have_snapshot) {
      os << ",\"begin\":" << sv.snap.range_begin
         << ",\"end\":" << sv.snap.range_end
         << ",\"committed\":" << sv.snap.committed
         << ",\"recovered\":" << sv.snap.recovered
         << ",\"elapsed_ms\":" << sv.snap.elapsed_ms
         << ",\"eps_milli\":" << sv.snap.eps_milli;
    }
    os << ",\"heartbeat_age_ms\":" << sv.heartbeat_age_ms
       << ",\"stalled\":" << (sv.stalled ? "true" : "false") << '}';
  }
  os << "]}\n";
  return os.str();
}

std::string render_final_run_status_json(
    std::uint64_t buyers,
    const std::vector<std::uint64_t>& artifact_sizes) {
  metrics::HistData h;
  std::uint64_t total = 0;
  for (const std::uint64_t bytes : artifact_sizes) {
    h.record(bytes);
    total += bytes;
  }
  std::ostringstream os;
  os << "{\"odcfp_run_status\":1,\"state\":\"done\",\"buyers\":" << buyers
     << ",\"committed\":" << buyers << ",\"artifact_bytes\":" << total
     << ",\"hists\":{\"artifact_bytes\":";
  write_hist_with_quantiles(os, h);
  os << "}}\n";
  return os.str();
}

std::string render_run_status_table(const RunStatusView& view) {
  std::ostringstream os;
  os << "run: " << view.state << "  committed " << view.committed << "/"
     << view.buyers << " buyer(s)\n";
  if (!view.lease_error.empty()) {
    os << "lease journal unusable: " << view.lease_error << "\n";
  }
  if (view.shards.empty()) return os.str();
  os << "shard  state       epoch  range        committed  eps"
        "      hb_age_ms  flags\n";
  for (const ShardStatusView& sv : view.shards) {
    char line[160];
    char range[32] = "?";
    char progress[32] = "?";
    char eps[32] = "?";
    if (sv.have_snapshot) {
      std::snprintf(range, sizeof(range), "[%llu,%llu)",
                    static_cast<unsigned long long>(sv.snap.range_begin),
                    static_cast<unsigned long long>(sv.snap.range_end));
      std::snprintf(
          progress, sizeof(progress), "%llu/%llu",
          static_cast<unsigned long long>(sv.snap.committed),
          static_cast<unsigned long long>(sv.snap.range_end -
                                          sv.snap.range_begin));
      std::snprintf(eps, sizeof(eps), "%.3f",
                    static_cast<double>(sv.snap.eps_milli) / 1000.0);
    }
    std::snprintf(line, sizeof(line),
                  "%-5llu  %-10s  %-5llu  %-11s  %-9s  %-7s  %-9lld  %s\n",
                  static_cast<unsigned long long>(sv.shard),
                  shard_state_name(sv.state),
                  static_cast<unsigned long long>(sv.epoch), range,
                  progress, eps,
                  static_cast<long long>(sv.heartbeat_age_ms),
                  sv.stalled ? "STALLED" : "");
    os << line;
  }
  return os.str();
}

RunStatusView load_run(const std::string& run_dir) {
  RunStatusView run;
  const Outcome<RunSpec> spec = read_run_spec(run_spec_path(run_dir));
  if (spec.ok()) {
    run.have_spec = true;
    run.buyers = spec.value().num_buyers;
  }
  LeaseReplay leases;
  const std::string lease_path = lease_journal_path(run_dir);
  if (atomic_io::exists(lease_path)) {
    Outcome<LeaseReplay> replayed = read_lease_journal(lease_path);
    if (replayed.ok()) {
      run.have_leases = true;
      leases = std::move(replayed).value();
      run.chains = lease_chains(leases.records);
    } else {
      run.lease_error = replayed.message();
    }
  }

  // Probe past the lease journal: a shard can have a journal or a
  // snapshot before its first lease record is durable.
  std::size_t num_shards = run.chains.shards.size();
  while (atomic_io::exists(shard_journal_path(run_dir, num_shards)) ||
         atomic_io::exists(status_snapshot_path(run_dir, num_shards))) {
    ++num_shards;
  }
  run.chains.shards.resize(num_shards);
  const std::vector<ShardLease> states = leases.lease_states(num_shards);
  bool any_journal = false;
  run.shards.resize(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    ShardStatusView& shard = run.shards[s];
    shard.shard = s;
    shard.state = states[s].state;
    shard.epoch = states[s].epoch;
    Outcome<JournalReplay> journal =
        read_journal(shard_journal_path(run_dir, s));
    if (journal.ok()) {
      any_journal = true;
      shard.journal = std::move(journal).value();
    }
    Outcome<ShardStatus> snap =
        read_status_snapshot(status_snapshot_path(run_dir, s));
    if (snap.ok()) {
      shard.have_snapshot = true;
      shard.snap = std::move(snap).value();
      shard.committed = shard.snap.committed;
    } else {
      for (const BuyerPhase phase :
           shard.journal.phase_of(shard.journal.header.num_buyers)) {
        if (phase == BuyerPhase::kCommitted) ++shard.committed;
      }
    }
    run.committed += shard.committed;
  }

  if (run.have_leases) {
    if (leases.merged) {
      run.state = "done";
    } else if (!leases.records.empty()) {
      run.state = "running";
    }
  } else if (run.lease_error.empty() && any_journal) {
    // No supervisor: the shards are the journals on disk, done together.
    run.state = run.buyers > 0 && run.committed == run.buyers ? "done"
                                                              : "running";
    if (run.state == "done") {
      for (ShardStatusView& shard : run.shards) shard.state = ShardState::kDone;
    }
  }
  // A done run has every buyer committed (a merge re-verified each);
  // stale snapshots must not make it look partial.
  if (run.state == "done") run.committed = run.buyers;
  return run;
}

RunStatusView inspect_run_dir(const std::string& run_dir,
                              std::int64_t stall_threshold_ms) {
  RunStatusView view = load_run(run_dir);
  for (ShardStatusView& sv : view.shards) {
    sv.heartbeat_age_ms = mtime_age_ms(shard_journal_path(run_dir, sv.shard));
    sv.stalled = sv.state == ShardState::kLeased &&
                 sv.heartbeat_age_ms >= stall_threshold_ms;
  }
  return view;
}

}  // namespace odcfp::dist
