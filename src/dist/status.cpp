#include "dist/status.hpp"

#include <map>
#include <sstream>
#include <utility>

#include "common/atomic_io.hpp"
#include "common/metrics.hpp"

namespace odcfp::dist {

namespace {

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

/// The shard's numbers, all read from its journal (ShardStatusView).
void read_progress(ShardStatusView* shard) {
  const JournalReplay& journal = shard->journal;
  for (const BuyerPhase phase : journal.phase_of(journal.header.num_buyers)) {
    if (phase == BuyerPhase::kCommitted) ++shard->committed;
  }
  std::map<std::uint64_t, std::uint64_t> embedding_wall;
  std::uint64_t first_wall = 0, last_wall = 0, commits = 0;
  for (const JournalEntry& e : journal.entries) {
    if (e.wall_ns == 0) continue;
    if (first_wall == 0) first_wall = e.wall_ns;
    last_wall = e.wall_ns;
    if (e.phase == BuyerPhase::kEmbedding) {
      embedding_wall[e.buyer] = e.wall_ns;
    } else if (e.phase == BuyerPhase::kCommitted) {
      ++commits;
      const auto it = embedding_wall.find(e.buyer);
      if (it != embedding_wall.end() && e.wall_ns >= it->second) {
        shard->editions.push_back({e.buyer, it->second, e.wall_ns});
        embedding_wall.erase(it);
      }
    }
  }
  shard->first_wall_ns = first_wall;
  shard->last_wall_ns = last_wall;
  if (last_wall > first_wall) {
    shard->eps_milli = static_cast<std::uint64_t>(
        static_cast<double>(commits) * 1e12 /
        static_cast<double>(last_wall - first_wall));
  }
}

}  // namespace

std::string run_status_path(const std::string& run_dir) {
  return run_dir + "/run_status.json";
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

  // Probe past the lease journal: a shard can have a journal before its
  // first lease record is durable.
  std::size_t num_shards = run.chains.shards.size();
  while (atomic_io::exists(shard_journal_path(run_dir, num_shards))) {
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
    Outcome<JournalReplay> journal =
        read_journal(shard_journal_path(run_dir, s));
    if (journal.ok()) {
      any_journal = true;
      shard.journal = std::move(journal).value();
      read_progress(&shard);
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
  // A done run has every buyer committed (a merge re-verified each).
  if (run.state == "done") run.committed = run.buyers;
  return run;
}

}  // namespace odcfp::dist
