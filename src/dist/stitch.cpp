#include "dist/stitch.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/trace.hpp"
#include "dist/status.hpp"

namespace odcfp::dist {

StitchResult stitch_run(const std::string& run_dir,
                        const StitchOptions& options) {
  StitchResult result;
  const RunStatusView run = load_run(run_dir);
  const std::size_t num_shards = run.shards.size();
  if (!run.have_leases &&
      (!run.lease_error.empty() || run.state == "idle")) {
    result.status = Status::kMalformedInput;
    result.message = "stitch: no usable lease journal or shard journal in '" +
                     run_dir + "'" +
                     (run.lease_error.empty() ? "" : ": " + run.lease_error);
    return result;
  }

  // Primary sources, read once by load_run: lease intervals and shard
  // journals.
  const LeaseChains& chains = run.chains;
  const std::uint64_t first_wall = chains.first_wall_ns;
  const std::uint64_t last_wall = chains.last_wall_ns;

  // ---- parse every candidate trace file in parallel ----
  // Index 0 is the supervisor; then one slot per (shard, grant) in shard
  // then epoch order, shard s's from first_trace[s]. parallel_map
  // assembles by index, so the decoded vector — and everything
  // downstream — is thread-count invariant.
  std::vector<std::string> trace_paths = {supervisor_trace_path(run_dir)};
  std::vector<std::size_t> first_trace(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    first_trace[s] = trace_paths.size();
    for (const LeaseInterval& iv : run.chains.shards[s]) {
      trace_paths.push_back(shard_trace_path(run_dir, s, iv.epoch));
    }
  }
  auto [parsed, parse_status] = parallel_map(
      options.pool, trace_paths.size(),
      [&](std::size_t i) { return trace::read_file(trace_paths[i]); });
  (void)parse_status;  // no budget: always kOk
  const trace::TraceFile& sup = parsed[0];
  result.supervisor_trace = sup.parsed;

  // ---- the stitched origin: minimum recorded wall time anywhere ----
  std::uint64_t t0 = 0;
  auto fold_min = [&t0](std::uint64_t wall) {
    if (wall != 0 && (t0 == 0 || wall < t0)) t0 = wall;
  };
  fold_min(first_wall);
  for (const trace::TraceFile& t : parsed) fold_min(t.origin_wall_ns);
  for (const ShardStatusView& shard : run.shards) {
    for (const JournalEntry& e : shard.journal.entries) fold_min(e.wall_ns);
    for (const std::uint64_t hb : shard.journal.heartbeat_walls) {
      fold_min(hb);
    }
  }
  result.origin_wall_ns = t0;
  const auto rel = [t0](std::uint64_t wall) { return wall - t0; };

  // ---- assemble the stitched timeline (single ordered pass) ----
  std::ostringstream os;
  trace::ChromeWriter out(os);
  // Re-emits one recorded event under a new (pid, tid), shifted onto the
  // stitched wall timeline via its file's anchor.
  const auto replay_event = [&](const trace::TraceFile::Event& ev,
                                std::size_t pid, std::uint64_t tid,
                                std::uint64_t origin_wall) {
    out.recorded(ev.name, ev.ph, pid, tid, rel(origin_wall) + ev.rel_ns,
                 ev.value, ev.detail.empty() ? nullptr : ev.detail.c_str());
  };

  // Supervisor process (pid 1): synthesized run track, then its own
  // recorded tracks offset to tid 1000+.
  out.name("process_name", 1, 0,
           sup.parsed && !sup.process_label.empty() ? sup.process_label
                                                    : "supervisor");
  out.name("thread_name", 1, 0, "run");
  if (first_wall != 0 && last_wall >= first_wall) {
    out.event("run", 'X', 1, 0)
        .time("ts", rel(first_wall))
        .time("dur", last_wall - first_wall)
        .arg("shards", num_shards);
  }
  if (chains.merged && chains.merged_wall_ns != 0) {
    out.event("merged", 'i', 1, 0)
        .thread_scope()
        .time("ts", rel(chains.merged_wall_ns));
  }
  if (sup.parsed && sup.have_anchor) {
    for (const auto& [tid, name] : sup.thread_names) {
      out.name("thread_name", 1, 1000 + tid, name);
    }
    for (const trace::TraceFile::Event& ev : sup.events) {
      replay_event(ev, 1, 1000 + ev.tid, sup.origin_wall_ns);
    }
  }

  // Shard processes (pid 2 + s).
  result.shards.resize(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    const ShardStatusView& shard = run.shards[s];
    const std::vector<LeaseInterval>& chain = chains.shards[s];
    ShardStitchInfo& info = result.shards[s];
    info.shard = s;
    const std::size_t pid = 2 + s;
    out.name("process_name", pid, 0, "shard-" + std::to_string(s));
    out.name("thread_name", pid, 0, "leases");
    out.name("thread_name", pid, 1, "buyers");

    // tid 0: one span per lease interval. Open leases (still running, or
    // cut short by a supervisor SIGKILL before any close record) extend
    // to the last wall time the journal recorded.
    for (const LeaseInterval& iv : chain) {
      info.epochs_granted = std::max(info.epochs_granted, iv.epoch);
      const std::uint64_t begin = iv.begin_wall_ns;
      if (begin == 0) continue;  // record predates wall= field
      const std::uint64_t end =
          iv.end_wall_ns >= begin ? iv.end_wall_ns : last_wall;
      out.event("lease", 'X', pid, 0)
          .time("ts", rel(begin))
          .time("dur", end >= begin ? end - begin : 0)
          .arg("epoch", iv.epoch)
          .arg("pid", iv.pid)
          .arg("end", iv.end_name());
      if (!iv.detail.empty()) out.arg("detail", iv.detail);
      ++info.lease_spans;
      ++result.lease_spans;
    }

    // tid 1: per-buyer embedding→committed spans (paired by load_run)
    // plus verified/failed instants, straight from the shard journal's
    // lifecycle records.
    for (const EditionSpan& span : shard.editions) {
      out.event("buyer", 'X', pid, 1)
          .time("ts", rel(span.begin_wall_ns))
          .time("dur", span.end_wall_ns - span.begin_wall_ns)
          .arg("buyer", span.buyer);
    }
    for (const JournalEntry& e : shard.journal.entries) {
      if (e.wall_ns == 0 || (e.phase != BuyerPhase::kVerified &&
                             e.phase != BuyerPhase::kFailed)) {
        continue;
      }
      out.event(e.phase == BuyerPhase::kVerified ? "verified" : "failed",
                'i', pid, 1)
          .thread_scope()
          .time("ts", rel(e.wall_ns))
          .arg("buyer", e.buyer);
    }

    // Worker traces, epoch by epoch, tids remapped so epochs never
    // collide: epoch*65536 + 16 + recorder tid (0..15 reserved for the
    // synthesized tracks above).
    for (std::size_t k = 0; k < chain.size(); ++k) {
      const trace::TraceFile* t = &parsed[first_trace[s] + k];
      const std::uint64_t epoch = chain[k].epoch;
      if (!t->parsed || !t->have_anchor) {
        ++info.missing_traces;
        ++result.missing_traces;
        continue;
      }
      ++info.traces_present;
      info.dropped_events += t->dropped;
      info.flushes += t->flushes;
      info.have_anchor = true;
      info.anchor_offset_ns =
          static_cast<std::int64_t>(t->origin_wall_ns) -
          static_cast<std::int64_t>(t0);
      result.dropped_events += t->dropped;
      const std::uint64_t tid_base = epoch * 65536 + 16;
      for (const auto& [tid, name] : t->thread_names) {
        out.name("thread_name", pid, tid_base + tid,
                 "e" + std::to_string(epoch) + ":" + name);
      }
      for (const trace::TraceFile::Event& ev : t->events) {
        replay_event(ev, pid, tid_base + ev.tid, t->origin_wall_ns);
        ++info.events;
      }
    }
  }

  // otherData: the stitch's own accounting, sorted for byte stability.
  std::map<std::string, std::string> other;
  other["stitch_dropped_events"] = std::to_string(result.dropped_events);
  other["stitch_lease_spans"] = std::to_string(result.lease_spans);
  other["stitch_missing_traces"] = std::to_string(result.missing_traces);
  other["stitch_origin_wall_ns"] = std::to_string(t0);
  other["stitch_shards"] = std::to_string(num_shards);
  other["stitch_supervisor_trace"] =
      result.supervisor_trace ? "1" : "0";
  out.finish(other);

  result.json = os.str();
  result.total_events = out.events();
  result.message = "stitched " + std::to_string(num_shards) +
                   " shard(s): " + std::to_string(result.total_events) +
                   " events, " + std::to_string(result.lease_spans) +
                   " lease spans, " +
                   std::to_string(result.missing_traces) +
                   " missing trace(s)";
  return result;
}

}  // namespace odcfp::dist
