// Acceptance gate of the trace-stitching tentpole.
//
// A real 4-shard run with one SIGKILLed-and-regranted worker must
// stitch into one Chrome timeline that is byte-identical across
// repeated stitches and across 1/2/8 stitcher threads, with every
// lease interval present as a span and every shard's clock offset
// within the run's own bounds. The report analyzer must name the
// killed shard and the critical-path shard — asserted both on the real
// run and on a handcrafted skewed workload whose wall timestamps are
// chosen, not measured, so the causal attribution is checked exactly.
#include <dirent.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/atomic_io.hpp"
#include "common/journal.hpp"
#include "common/json_lite.hpp"
#include "common/parallel.hpp"
#include "dist/lease.hpp"
#include "dist/report.hpp"
#include "dist/shard.hpp"
#include "dist/stitch.hpp"
#include "dist/supervisor.hpp"

namespace odcfp::dist {
namespace {

constexpr std::size_t kBuyers = 8;

void wipe_tree(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  std::vector<std::string> names;
  while (dirent* e = ::readdir(d)) {
    if (std::strcmp(e->d_name, ".") != 0 &&
        std::strcmp(e->d_name, "..") != 0) {
      names.emplace_back(e->d_name);
    }
  }
  ::closedir(d);
  for (const std::string& name : names) {
    const std::string path = dir + "/" + name;
    wipe_tree(path);  // no-op on regular files
    if (::rmdir(path.c_str()) != 0) std::remove(path.c_str());
  }
}

// A *fresh* dir: a leftover run dir from a previous invocation would
// otherwise be replayed as a completed WAL (no workers spawned, no
// kill) instead of running the scenario.
std::string fresh_dir(const std::string& name) {
  std::string base = ::testing::TempDir();
  if (!base.empty() && base.back() != '/') base += '/';
  const std::string dir = base + "dist_stitch/" + name;
  wipe_tree(dir);
  atomic_io::make_dirs(dir);
  return dir;
}

RunSpec stitch_spec() {
  RunSpec spec;
  spec.circuit = "c432";
  spec.num_buyers = kBuyers;
  spec.codebook_seed = 2026;
  spec.batch_seed = 7;
  spec.max_delay_overhead = 0;
  spec.label = "dist stitch";
  return spec;
}

std::uint64_t count_events_named(const jsonlite::Value& doc,
                                 const std::string& name) {
  std::uint64_t n = 0;
  for (const jsonlite::Value& ev : doc.at("traceEvents").items) {
    if (ev.at("name").str == name) ++n;
  }
  return n;
}

// The tentpole's end-to-end shape: 4 shards, shard 0's epoch-1 worker
// SIGKILLs itself at its first artifact rename, the supervisor
// re-grants, and the debris — 5 lease intervals, 5 worker traces, the
// supervisor trace, journals — stitches deterministically.
TEST(DistStitch, KilledRunStitchesByteIdenticalAndAccountsEveryLease) {
  const std::string dir = fresh_dir("killed_run");
  DistOptions opt;
  opt.run_dir = dir;
  opt.worker_binary = ODCFP_WORKER_BIN;
  opt.num_shards = 4;
  opt.worker_threads = 1;
  opt.heartbeat_interval_ms = 10;
  opt.heartbeat_timeout_ms = 60'000;
  opt.poll_interval_ms = 2;
  opt.capture_traces = true;
  opt.extra_worker_args = {"--chaos-signal", "kill",
                           "--chaos-site",   "atomic_io.rename",
                           "--chaos-nth",    "1",
                           "--chaos-epoch",  "1",
                           "--chaos-shard",  "0"};
  const DistResult r = run_supervised_batch(stitch_spec(), opt);
  ASSERT_EQ(r.status, Status::kOk) << r.message;
  ASSERT_EQ(r.shards, 4u);
  ASSERT_EQ(r.regrants, 1u) << "only shard 0's worker should die";

  // The primary sources carry the anchored timebase: every lease record
  // and journal entry is wall-stamped, heartbeats nondecreasing.
  const Outcome<LeaseReplay> leases =
      read_lease_journal(lease_journal_path(dir));
  ASSERT_TRUE(leases.ok()) << leases.message();
  std::uint64_t grants = 0;
  std::uint64_t first_wall = 0;
  std::uint64_t last_wall = 0;
  for (const LeaseRecord& rec : leases.value().records) {
    EXPECT_NE(rec.wall_ns, 0u) << "lease record without a wall stamp";
    if (rec.event == LeaseEvent::kGranted) ++grants;
    if (rec.wall_ns != 0) {
      last_wall = std::max(last_wall, rec.wall_ns);
      if (first_wall == 0 || rec.wall_ns < first_wall) {
        first_wall = rec.wall_ns;
      }
    }
  }
  EXPECT_EQ(grants, 5u);  // 4 first grants + 1 regrant
  const Outcome<JournalReplay> journal =
      read_journal(shard_journal_path(dir, 1));
  ASSERT_TRUE(journal.ok()) << journal.message();
  for (const JournalEntry& e : journal.value().entries) {
    EXPECT_NE(e.wall_ns, 0u) << "journal entry without a wall stamp";
  }
  std::uint64_t prev_hb = 0;
  for (const std::uint64_t hb : journal.value().heartbeat_walls) {
    EXPECT_NE(hb, 0u);
    EXPECT_GE(hb, prev_hb) << "anchored heartbeat walls must not regress";
    prev_hb = hb;
  }

  // Byte-identity: repeated stitches, serial and at 1/2/8 threads.
  const StitchResult base = stitch_run(dir);
  ASSERT_EQ(base.status, Status::kOk) << base.message;
  EXPECT_EQ(stitch_run(dir).json, base.json) << "re-stitch differs";
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    StitchOptions options;
    options.pool = &pool;
    const StitchResult got = stitch_run(dir, options);
    ASSERT_EQ(got.status, Status::kOk) << got.message;
    EXPECT_EQ(got.json, base.json)
        << "stitched bytes differ at " << threads << " threads";
  }

  // Every lease interval appears as a span; no trace file is missing —
  // the killed worker's arm-time flush survived its SIGKILL.
  EXPECT_EQ(base.lease_spans, grants);
  EXPECT_EQ(base.missing_traces, 0u);
  EXPECT_EQ(base.dropped_events, 0u);
  EXPECT_TRUE(base.supervisor_trace);
  ASSERT_EQ(base.shards.size(), 4u);
  EXPECT_EQ(base.shards[0].epochs_granted, 2u);
  EXPECT_EQ(base.shards[0].traces_present, 2u);
  EXPECT_EQ(base.shards[0].lease_spans, 2u);

  // Clock offsets are pure record math and bounded by the run itself:
  // every worker's trace origin sits inside [t0, t0 + makespan + slack].
  ASSERT_NE(first_wall, 0u);
  const std::uint64_t makespan = last_wall - first_wall;
  EXPECT_NE(base.origin_wall_ns, 0u);
  EXPECT_LE(base.origin_wall_ns, first_wall);
  for (const ShardStitchInfo& info : base.shards) {
    EXPECT_TRUE(info.have_anchor) << "shard " << info.shard;
    EXPECT_GE(info.anchor_offset_ns, 0) << "shard " << info.shard;
    EXPECT_LE(info.anchor_offset_ns,
              static_cast<std::int64_t>(makespan) + 5'000'000'000)
        << "shard " << info.shard;
  }

  // The stitched file is well-formed JSON whose own accounting matches.
  const jsonlite::Value doc = jsonlite::parse(base.json);
  EXPECT_EQ(doc.at("traceEvents").items.size(), base.total_events);
  EXPECT_EQ(doc.at("otherData").at("stitch_lease_spans").str,
            std::to_string(grants));
  EXPECT_EQ(count_events_named(doc, "lease"), grants);
  EXPECT_GE(count_events_named(doc, "buyer"), 1u);

  // The analyzer on the real run: names the killed shard, attributes
  // the regrant, and sees the full commit count from the journals.
  RunReport report = analyze_run(dir);
  ASSERT_EQ(report.status, Status::kOk) << report.message;
  EXPECT_EQ(report.state, "done");
  EXPECT_EQ(report.committed, kBuyers);
  ASSERT_EQ(report.shards.size(), 4u);
  EXPECT_TRUE(report.shards[0].killed);
  EXPECT_FALSE(report.shards[1].killed);
  EXPECT_EQ(report.regrant_events, 1u);
  EXPECT_NE(report.critical_path_shard, SIZE_MAX);
  fold_stitch(base, &report);
  EXPECT_EQ(report.shards[0].missing_traces, 0u);
  // Renders never crash and carry the headline facts.
  EXPECT_NE(render_report_table(report).find("shard"), std::string::npos);
  const jsonlite::Value rj = jsonlite::parse(render_report_json(report));
  EXPECT_EQ(rj.at("odcfp_run_report").raw, "1");
  EXPECT_EQ(rj.at("regrant_events").raw, "1");
}

std::string lease_line(std::uint64_t seq, std::uint64_t shard,
                       std::uint64_t epoch, const char* event,
                       std::uint64_t pid, std::uint64_t wall,
                       const std::string& detail = "") {
  std::string payload = "seq=" + std::to_string(seq) +
                        " shard=" + std::to_string(shard) +
                        " epoch=" + std::to_string(epoch) + " event=" +
                        event + " pid=" + std::to_string(pid) +
                        " wall=" + std::to_string(wall) +
                        " detail=" + detail;
  return record_log::format_line('L', payload);
}

std::string journal_line(std::uint64_t seq, std::uint64_t buyer,
                         BuyerPhase phase, std::uint64_t wall) {
  JournalEntry entry;
  entry.seq = seq;
  entry.buyer = buyer;
  entry.phase = phase;
  entry.wall_ns = wall;
  return record_log::format_line('R', entry_payload(entry));
}

// A skewed workload whose wall timestamps are CHOSEN: shard 1 is killed
// and re-granted, shard 2 finishes last and carries outlier latency.
// The analyzer must attribute all three causally — exact values, not
// schedule-dependent bounds.
TEST(DistStitch, ReportNamesKilledAndCriticalPathShardOnSkewedWorkload) {
  const std::string dir = fresh_dir("skewed");
  const RunSpec spec = stitch_spec();
  ASSERT_TRUE(write_run_spec(run_spec_path(dir), spec).ok());

  constexpr std::uint64_t kMs = 1'000'000;
  constexpr std::uint64_t kBase = 1'000'000'000'000;  // chosen, not read
  const JournalHeader header = run_header(spec);
  std::string journal = "odcfp-leases 1\n";
  journal += record_log::format_line(
      'H', record_log::header_payload(header));
  journal += lease_line(0, 0, 1, "granted", 101, kBase);
  journal += lease_line(1, 1, 1, "granted", 102, kBase + 1 * kMs);
  journal += lease_line(2, 2, 1, "granted", 103, kBase + 2 * kMs);
  journal += lease_line(3, 1, 1, "revoked", 102, kBase + 50 * kMs,
                        "worker died by signal 9");
  journal += lease_line(4, 1, 2, "granted", 104, kBase + 51 * kMs);
  journal += lease_line(5, 0, 1, "done", 101, kBase + 100 * kMs);
  journal += lease_line(6, 1, 2, "done", 104, kBase + 150 * kMs);
  journal += lease_line(7, 2, 1, "done", 103, kBase + 400 * kMs);
  journal += lease_line(8, 0, 0, "merged", 0, kBase + 401 * kMs);
  ASSERT_TRUE(
      atomic_io::write_file_atomic(lease_journal_path(dir), journal).ok);

  // Shard journals, inside each shard's leases: shards 0/1 commit ~1ms
  // editions (buyers 0-2, 3-5), shard 2 ~100ms ones (buyers 6-7) — an
  // outlier far past 3x the run's median p99.
  const auto ranges = shard_ranges(kBuyers, 3);
  ASSERT_EQ(ranges.size(), 3u);
  const std::uint64_t first_embed_ms[] = {10, 60, 100};
  const std::uint64_t embed_gap_ms[] = {10, 10, 150};
  const std::uint64_t edition_ms[] = {1, 1, 100};
  for (std::size_t s = 0; s < 3; ++s) {
    std::string shard_journal = "odcfp-journal 1\n";
    shard_journal += record_log::format_line(
        'H', record_log::header_payload(header));
    std::uint64_t seq = 0;
    for (std::size_t b = ranges[s].first; b < ranges[s].second; ++b) {
      const std::uint64_t embed =
          kBase +
          (first_embed_ms[s] + (b - ranges[s].first) * embed_gap_ms[s]) *
              kMs;
      const std::uint64_t commit = embed + edition_ms[s] * kMs;
      shard_journal +=
          journal_line(seq++, b, BuyerPhase::kEmbedding, embed);
      shard_journal += journal_line(seq++, b, BuyerPhase::kVerified,
                                    (embed + commit) / 2);
      shard_journal +=
          journal_line(seq++, b, BuyerPhase::kCommitted, commit);
    }
    ASSERT_TRUE(atomic_io::write_file_atomic(shard_journal_path(dir, s),
                                             shard_journal)
                    .ok);
  }

  ReportOptions options;
  options.latency_k = 3.0;
  RunReport report = analyze_run(dir, options);
  ASSERT_EQ(report.status, Status::kOk) << report.message;
  EXPECT_EQ(report.state, "done");
  EXPECT_EQ(report.buyers, kBuyers);
  EXPECT_EQ(report.committed, 8u);
  EXPECT_EQ(report.makespan_ns, 401 * kMs);

  // Causal attribution, exactly: shard 2 ends last (critical path),
  // shard 1 was killed and its 49ms epoch-1 interval is the redo cost.
  EXPECT_EQ(report.critical_path_shard, 2u);
  EXPECT_EQ(report.critical_path_ns, 398 * kMs);
  ASSERT_EQ(report.shards.size(), 3u);
  EXPECT_TRUE(report.shards[1].killed);
  EXPECT_FALSE(report.shards[0].killed);
  EXPECT_FALSE(report.shards[2].killed);
  EXPECT_EQ(report.regrant_events, 1u);
  EXPECT_EQ(report.shards[1].lost_ns, 49 * kMs);
  EXPECT_EQ(report.lost_ns, 49 * kMs);
  EXPECT_EQ(report.shards[0].committed, 3u);
  EXPECT_EQ(report.shards[1].committed, 3u);
  EXPECT_EQ(report.shards[2].committed, 2u);
  EXPECT_TRUE(report.shards[2].have_latency);
  EXPECT_GT(report.shards[2].p99_ns, report.shards[0].p99_ns);

  bool saw_kill = false;
  bool saw_latency = false;
  for (const std::string& a : report.anomalies) {
    if (a.find("shard 1 epoch 1 revoked") != std::string::npos &&
        a.find("signal 9") != std::string::npos) {
      saw_kill = true;
    }
    if (a.find("shard 2 p99") != std::string::npos) saw_latency = true;
  }
  EXPECT_TRUE(saw_kill) << render_report_table(report);
  EXPECT_TRUE(saw_latency) << render_report_table(report);

  // Stitching a trace-less dir: every granted epoch is reported missing
  // (never silently absent), and the output is still deterministic.
  const StitchResult stitched = stitch_run(dir);
  ASSERT_EQ(stitched.status, Status::kOk) << stitched.message;
  EXPECT_EQ(stitched.lease_spans, 4u);
  EXPECT_EQ(stitched.missing_traces, 4u);
  EXPECT_FALSE(stitched.supervisor_trace);
  EXPECT_EQ(stitched.origin_wall_ns, kBase);
  EXPECT_EQ(stitch_run(dir).json, stitched.json);
  // A hostile supervisor trace (nesting far past the reader's depth
  // bound) counts as unreadable, exactly like an absent one.
  ASSERT_TRUE(atomic_io::make_dirs(traces_dir(dir)));
  ASSERT_TRUE(atomic_io::write_file_atomic(supervisor_trace_path(dir),
                                           std::string(200'000, '['))
                  .ok);
  const StitchResult hostile = stitch_run(dir);
  ASSERT_EQ(hostile.status, Status::kOk) << hostile.message;
  EXPECT_FALSE(hostile.supervisor_trace);
  EXPECT_EQ(hostile.missing_traces, 4u);
  EXPECT_EQ(hostile.json, stitched.json);
  // So does a well-formed trace with one number outside its field's
  // range: refused, never wrapped into a tid, timestamp, counter value
  // or clock origin.
  const std::string sound =
      "{\"traceEvents\":[\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"main\"}},\n"
      "{\"name\":\"dist.supervise\",\"ph\":\"B\",\"pid\":1,\"tid\":0,"
      "\"ts\":1.000},\n"
      "{\"name\":\"n\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":2.000,"
      "\"args\":{\"value\":7}},\n"
      "{\"name\":\"dist.supervise\",\"ph\":\"E\",\"pid\":1,\"tid\":0,"
      "\"ts\":3.000}\n"
      "],\"otherData\":{\"clock_anchor_wall_ns\":\"1\","
      "\"trace_origin_wall_ns\":\"1000000000000\"}}\n";
  ASSERT_TRUE(
      atomic_io::write_file_atomic(supervisor_trace_path(dir), sound).ok);
  const StitchResult read_back = stitch_run(dir);
  EXPECT_TRUE(read_back.supervisor_trace);
  EXPECT_NE(read_back.json, stitched.json);
  const std::pair<const char*, const char*> out_of_range[] = {
      {"\"tid\":0,\"ts\":1.000", "\"tid\":\"seven\",\"ts\":1.000"},
      {"\"tid\":0,\"ts\":1.000", "\"tid\":-3,\"ts\":1.000"},
      {"\"ts\":1.000", "\"ts\":-1.000"},
      {"\"ts\":1.000", "\"ts\":12345678901234567890123.000"},
      {"\"ts\":1.000", "\"ts\":18446744073709551.616"},  // us*1000+frac
      {"\"value\":7", "\"value\":1e30"},
      {"\"trace_origin_wall_ns\":\"1000000000000\"",
       "\"trace_origin_wall_ns\":\"-5\""},
  };
  for (const auto& [field, damaged] : out_of_range) {
    SCOPED_TRACE(damaged);
    std::string bytes = sound;
    bytes.replace(bytes.find(field), std::strlen(field), damaged);
    ASSERT_TRUE(
        atomic_io::write_file_atomic(supervisor_trace_path(dir), bytes).ok);
    const StitchResult refused = stitch_run(dir);
    ASSERT_EQ(refused.status, Status::kOk) << refused.message;
    EXPECT_FALSE(refused.supervisor_trace);
    EXPECT_EQ(refused.json, stitched.json);
  }
  fold_stitch(stitched, &report);
  EXPECT_EQ(report.shards[1].missing_traces, 2u);
  bool saw_missing = false;
  for (const std::string& a : report.anomalies) {
    if (a.find("shard 1 is missing trace file(s) for 2") !=
        std::string::npos) {
      saw_missing = true;
    }
  }
  EXPECT_TRUE(saw_missing);
}

// A run without a lease journal (a daemon request, or a library run like
// examples/buyer_batch) has its shard journals for shards. Their chosen
// wall times bound it: the makespan runs from the first wall-stamped
// record of any shard to the last, and the critical path is the shard
// whose journal ends last, measured from its own first record.
TEST(DistStitch, RunWithoutLeasesTakesMakespanFromShardJournals) {
  const std::string dir = fresh_dir("no_leases");
  const RunSpec spec = stitch_spec();
  ASSERT_TRUE(write_run_spec(run_spec_path(dir), spec).ok());
  constexpr std::uint64_t kMs = 1'000'000;
  constexpr std::uint64_t kBase = 2'000'000'000'000;  // chosen, not read
  const JournalHeader header = run_header(spec);
  // Shard `s` stamps `buyers` starting `start_ms` in, one per 10 ms; a
  // record without a wall time carries none.
  const auto write_shard = [&](std::size_t s, std::uint64_t first_buyer,
                               std::uint64_t buyers, std::uint64_t start_ms) {
    std::string journal = "odcfp-journal 1\n";
    journal += record_log::format_line(
        'H', record_log::header_payload(header));
    std::uint64_t seq = 0;
    journal += journal_line(seq++, first_buyer, BuyerPhase::kEmbedding, 0);
    for (std::uint64_t b = first_buyer; b < first_buyer + buyers; ++b) {
      const std::uint64_t embed =
          kBase + (start_ms + (b - first_buyer) * 10) * kMs;
      journal += journal_line(seq++, b, BuyerPhase::kEmbedding, embed);
      journal +=
          journal_line(seq++, b, BuyerPhase::kVerified, embed + 2 * kMs);
      journal +=
          journal_line(seq++, b, BuyerPhase::kCommitted, embed + 4 * kMs);
    }
    ASSERT_TRUE(
        atomic_io::write_file_atomic(shard_journal_path(dir, s), journal)
            .ok);
  };

  // One shard with every buyer: the shape of a buyer_batch dir.
  write_shard(0, 0, kBuyers, 5);
  RunReport report = analyze_run(dir);
  ASSERT_EQ(report.status, Status::kOk) << report.message;
  EXPECT_EQ(report.state, "done");
  ASSERT_EQ(report.shards.size(), 1u);
  // From buyer 0's embedding at 5 ms to buyer 7's commit at 79 ms.
  EXPECT_EQ(report.makespan_ns, 74 * kMs);
  EXPECT_EQ(report.critical_path_shard, 0u);
  EXPECT_EQ(report.critical_path_ns, 74 * kMs);
  const jsonlite::Value one = jsonlite::parse(render_report_json(report));
  EXPECT_EQ(one.at("makespan_ns").raw, std::to_string(74 * kMs));
  EXPECT_EQ(one.at("critical_path_shard").raw, "0");
  EXPECT_NE(render_report_table(report).find("critical path: shard 0 (74."),
            std::string::npos)
      << render_report_table(report);

  // Two shards: shard 1 starts later but ends last, so it is the
  // critical path, measured from its own first record.
  write_shard(0, 0, 4, 5);
  write_shard(1, 4, 4, 20);
  report = analyze_run(dir);
  ASSERT_EQ(report.shards.size(), 2u);
  // Shard 0 spans 5..39 ms, shard 1 20..54 ms.
  EXPECT_EQ(report.makespan_ns, 49 * kMs);
  EXPECT_EQ(report.critical_path_shard, 1u);
  EXPECT_EQ(report.critical_path_ns, 34 * kMs);
}

// Degraded inputs: a run dir before any grant reports as idle (exit-0
// territory for tools/odcfp_report), and a dir with nothing analyzable
// is the one hard error.
TEST(DistStitch, IdleAndEmptyDirsDegradeGracefully) {
  const std::string idle = fresh_dir("idle");
  ASSERT_TRUE(write_run_spec(run_spec_path(idle), stitch_spec()).ok());
  const RunReport idle_report = analyze_run(idle);
  EXPECT_EQ(idle_report.status, Status::kOk);
  EXPECT_EQ(idle_report.state, "idle");
  EXPECT_TRUE(idle_report.shards.empty());
  EXPECT_EQ(stitch_run(idle).status, Status::kMalformedInput);

  const std::string empty = fresh_dir("empty");
  EXPECT_EQ(analyze_run(empty).status, Status::kMalformedInput);
}

}  // namespace
}  // namespace odcfp::dist
