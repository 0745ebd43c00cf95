#include "dist/runner.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "benchgen/benchmarks.hpp"
#include "common/atomic_io.hpp"
#include "common/check.hpp"
#include "common/clock.hpp"
#include "common/journal.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/retry.hpp"
#include "common/telemetry.hpp"
#include "common/trace.hpp"
#include "dist/status.hpp"
#include "fingerprint/embedder.hpp"
#include "fingerprint/location.hpp"
#include "fingerprint/streaming_codebook.hpp"
#include "io/blif.hpp"
#include "netlist/netlist.hpp"
#include "power/power.hpp"
#include "timing/sta.hpp"

namespace odcfp::dist {

namespace {

std::unique_ptr<const CodebookSource> make_codebook(
    const RunSpec& spec, const std::vector<FingerprintLocation>& locs) {
  if (spec.codebook == CodebookKind::kMaterialized) {
    return std::make_unique<Codebook>(locs, spec.num_buyers,
                                      spec.codebook_seed);
  }
  if (spec.num_buyers > StreamingCodebook::capacity(locs)) {
    throw CheckError("buyers exceed codeword capacity of '" + spec.circuit +
                     "'");
  }
  return std::make_unique<StreamingCodebook>(locs, spec.num_buyers,
                                             spec.codebook_seed);
}

std::string edition_artifact_path(const std::string& dir,
                                  std::size_t buyer) {
  return dir + "/edition_" + std::to_string(buyer) + ".blif";
}

/// Checksum of everything that determines the editions' bytes besides
/// the base seed: golden structure, codebook contents, delay constraint.
/// A resumed run whose config checksum differs would silently produce
/// different artifacts, so the journal header pins it.
std::uint32_t run_config_crc(const Netlist& golden, const CodebookSource& book,
                             double max_delay_overhead) {
  // Streaming digest: one codeword in flight at a time, so a
  // million-buyer StreamingCodebook never materializes here either.
  atomic_io::Crc32 crc;
  {
    std::ostringstream os;
    os << structural_signature(golden)
       << "|buyers=" << book.num_buyers()
       << "|delay=" << max_delay_overhead << "|codes=";
    crc.update(os.str());
  }
  for (std::size_t b = 0; b < book.num_buyers(); ++b) {
    std::ostringstream os;
    for (const auto& per_loc : book.code_of(b)) {
      for (const std::uint8_t v : per_loc) {
        os << static_cast<int>(v) << ',';
      }
      os << ';';
    }
    os << '/';
    crc.update(os.str());
  }
  return crc.value();
}

/// The shard's progress as its status snapshots report it. The counts are
/// the commit protocol's own, so a snapshot never claims a buyer whose
/// artifact is not already durable.
struct Progress {
  std::string snap_path;
  ShardStatus identity;  ///< shard, epoch, pid and range
  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
  std::atomic<std::size_t> committed{0};
  std::atomic<std::size_t> recovered{0};

  /// One atomic single-record publish carrying progress, rate, and this
  /// process's edition-latency histogram so far.
  void publish(bool final_report) const {
    ShardStatus st = identity;
    st.committed = committed.load(std::memory_order_relaxed);
    st.recovered = recovered.load(std::memory_order_relaxed);
    st.elapsed_ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    const std::uint64_t stamped = st.committed - st.recovered;
    st.eps_milli =
        st.elapsed_ms > 0 ? stamped * 1'000'000 / st.elapsed_ms : 0;
    st.done = final_report ? 1 : 0;
    st.wall_ns = clocks::anchored_wall_now_ns();
    st.edition_ns = telemetry::snapshot().hist_total("batch.edition_ns");
    write_status_snapshot(snap_path, st);
    // Heartbeat-cadence durability for an armed trace: a SIGKILLed
    // process loses at most one interval of its timeline.
    if (trace::armed()) trace::flush();
  }
};

/// Liveness sidecar of a heartbeating shard: every `interval_ms` it
/// appends a journal heartbeat (serialized with the workers' appends on
/// the journal's mutex) and publishes a status snapshot, until destroyed.
class HeartbeatTicker {
 public:
  HeartbeatTicker(Journal* journal, const Progress* progress,
                  std::int64_t interval_ms) {
    if (interval_ms <= 0) return;
    thread_ = std::thread([this, journal, progress, interval_ms] {
      std::unique_lock<std::mutex> lock(mu_);
      for (std::uint64_t beat = 1; !stop_; ++beat) {
        lock.unlock();
        journal->heartbeat(beat);
        progress->publish(/*final_report=*/false);
        lock.lock();
        cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                     [this] { return stop_; });
      }
    });
  }
  HeartbeatTicker(const HeartbeatTicker&) = delete;
  HeartbeatTicker& operator=(const HeartbeatTicker&) = delete;

  ~HeartbeatTicker() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

RunInputs::RunInputs(const RunSpec& spec)
    : golden(make_benchmark(spec.circuit)),
      locations(find_locations(golden)),
      book(make_codebook(spec, locations)) {}

ResumableBatchResult run_shard(const std::string& run_dir,
                               const RunSpec& spec, const RunInputs& inputs,
                               const ShardOptions& options) {
  // The span keeps its name: gated telemetry trees (bench/baselines)
  // pin it.
  TELEM_SPAN("batch_fingerprint_resumable");
  Progress progress;
  const Netlist& golden = inputs.golden;
  const CodebookSource& book = *inputs.book;
  const std::string journal_path = shard_journal_path(run_dir, options.shard);
  const std::string artifact_dir = editions_dir(run_dir);
  ResumableBatchResult rr;
  rr.journal_path = journal_path;
  const std::size_t n = book.num_buyers();
  rr.artifacts.assign(n, "");
  rr.artifact_crcs.assign(n, 0);

  const auto fail = [&rr](std::string msg) -> ResumableBatchResult& {
    rr.status = Status::kMalformedInput;
    rr.batch.status = Status::kMalformedInput;
    rr.message = std::move(msg);
    log::error("batch.resumable.rejected").field("reason", rr.message);
    return rr;
  };
  const std::size_t rb = options.begin;
  const std::size_t re = options.end == 0 ? n : options.end;
  if (re > n || (n > 0 && rb >= re)) {
    std::ostringstream os;
    os << "invalid shard range [" << rb << ", " << re << ") for " << n
       << " buyer(s)";
    return fail(os.str());
  }
  if (!atomic_io::make_dirs(artifact_dir)) {
    return fail("cannot create artifact dir '" + artifact_dir + "'");
  }

  BatchOptions bo;
  bo.seed = spec.batch_seed;
  bo.max_delay_overhead = spec.max_delay_overhead;
  bo.pool = options.pool;
  bo.budget = options.budget;
  const std::uint32_t config_crc =
      run_config_crc(golden, book, bo.max_delay_overhead);
  std::vector<BuyerPhase> phases(n, BuyerPhase::kQueued);
  std::vector<std::string> committed_path(n);
  std::vector<std::uint32_t> committed_crc(n, 0);
  Journal journal;
  bool fresh = true;

  if (atomic_io::exists(journal_path)) {
    Outcome<JournalReplay> replayed = read_journal(journal_path);
    if (!replayed.ok()) return fail(replayed.message());
    const JournalReplay& replay = replayed.value();
    if (replay.has_header) {
      if (replay.header.num_buyers != n ||
          replay.header.config_crc != config_crc) {
        return fail("journal '" + journal_path +
                    "' belongs to a different run (codebook, golden "
                    "netlist, or delay constraint mismatch)");
      }
      if (replay.header.seed != bo.seed) {
        // The journal is authoritative: per-buyer seeds re-derive from
        // its header so resumed editions can never diverge from the
        // artifacts already committed.
        log::warn("batch.resume.seed_override")
            .field("journal_seed", replay.header.seed)
            .field("requested_seed", bo.seed);
        bo.seed = replay.header.seed;
      }
      phases = replay.phase_of(n);
      for (std::size_t b = rb; b < re; ++b) {
        if (phases[b] != BuyerPhase::kCommitted) continue;
        const JournalEntry* e = replay.committed(b);
        committed_path[b] = e->artifact;
        committed_crc[b] = e->artifact_crc;
      }
      Outcome<Journal> opened = Journal::append_to(journal_path, replay);
      if (!opened.ok()) return fail(opened.message());
      journal = std::move(opened).value();
      fresh = false;
      log::info("batch.resume.journal_replayed")
          .field("path", journal_path)
          .field("records", replay.entries.size())
          .field("torn_tail", replay.torn_tail);
    }
    // No durable header: the crashed run never started real work —
    // recreate the journal from scratch below.
  }
  if (fresh) {
    JournalHeader header;
    header.seed = bo.seed;
    header.num_buyers = n;
    header.config_crc = config_crc;
    header.label = spec.label;
    Outcome<Journal> created = Journal::create(journal_path, header);
    if (!created.ok()) return fail(created.message());
    journal = std::move(created).value();
  }

  atomic_io::remove_stale_temps(artifact_dir);

  // Trust no committed record without its artifact: the bytes must be
  // present at the final path with the checksum recorded at commit time,
  // else the buyer is demoted and re-stamped (idempotent by design).
  std::vector<char> recovered(n, 0);
  for (std::size_t b = rb; b < re; ++b) {
    if (phases[b] != BuyerPhase::kCommitted) continue;
    std::string bytes;
    if (atomic_io::read_file(committed_path[b], &bytes) &&
        atomic_io::crc32(bytes) == committed_crc[b]) {
      recovered[b] = 1;
    } else {
      phases[b] = BuyerPhase::kQueued;
      log::warn("batch.resume.artifact_demoted")
          .field("buyer", b)
          .field("artifact", committed_path[b]);
    }
  }

  const StaticTimingAnalyzer sta;
  const PowerAnalyzer power;
  rr.batch.baseline = Baseline::measure(golden, sta, power);
  rr.batch.editions.resize(n);
  for (std::size_t b = 0; b < n; ++b) {
    rr.batch.editions[b].buyer = b;
    rr.batch.editions[b].seed = buyer_seed(bo.seed, b);
    rr.batch.editions[b].status = Status::kExhausted;
  }

  progress.snap_path = status_snapshot_path(run_dir, options.shard);
  progress.identity.shard = options.shard;
  progress.identity.epoch = options.epoch;
  progress.identity.pid = static_cast<std::uint64_t>(::getpid());
  progress.identity.range_begin = rb;
  progress.identity.range_end = re;
  std::atomic<std::size_t> total_retries{0};
  Status loop_status = Status::kOk;
  {
    // Joined (and thus silent) before the final snapshot and the journal
    // close.
    HeartbeatTicker ticker(&journal, &progress, options.heartbeat_ms);
    loop_status = parallel_for(
      bo.pool, re - rb,
      [&](std::size_t i) {
        const std::size_t b = rb + i;
        TELEM_SPAN("batch_fingerprint.edition");
        BuyerEdition& slot = rr.batch.editions[b];
        if (recovered[b]) {
          slot.status = Status::kOk;
          slot.code = book.code_of(b);
          rr.artifacts[b] = committed_path[b];
          rr.artifact_crcs[b] = committed_crc[b];
          progress.recovered.fetch_add(1, std::memory_order_relaxed);
          progress.committed.fetch_add(1, std::memory_order_relaxed);
          TELEM_COUNT("batch.editions_recovered", 1);
          return;
        }
        TELEM_HIST_TIMER("batch.edition_ns");
        const std::string path = edition_artifact_path(artifact_dir, b);
        journal.append(b, BuyerPhase::kEmbedding);
        RetryPolicy rp;
        rp.seed ^= slot.seed;  // per-buyer schedule, scheduling-free
        rp.budget = bo.budget;
        BuyerEdition edition;
        std::uint32_t crc = 0;
        std::string permanent_error;
        const RetryStats rs = retry_with_backoff(
            "batch.edition", rp, [&](int) -> Status {
              edition = make_edition(golden, book, b, rr.batch.baseline,
                                     sta, power, bo);
              // The delay-overhead verdict gates BEFORE publishing: a
              // constraint-violating edition must never be committed, or
              // a resume would recover it as kOk and disagree with an
              // uninterrupted run about the batch's feasibility.
              if (edition.status == Status::kInfeasible) {
                permanent_error = "delay overhead constraint violated";
                return Status::kInfeasible;
              }
              // Idempotency gate before publishing: the stamped clone
              // must decode back to exactly this buyer's codeword.
              if (extract_code(edition.netlist, golden,
                               book.locations()) != edition.code) {
                permanent_error =
                    "extracted code does not match the codeword";
                return Status::kInfeasible;
              }
              if (!journal.append(b, BuyerPhase::kVerified)) {
                return Status::kExhausted;
              }
              const std::string blif = to_blif_string(edition.netlist);
              if (!atomic_io::write_file_atomic(path, blif).ok) {
                return Status::kExhausted;
              }
              crc = atomic_io::crc32(blif);
              if (!journal.append(b, BuyerPhase::kCommitted, path, crc)) {
                return Status::kExhausted;
              }
              return Status::kOk;
            });
        total_retries.fetch_add(rs.backoff_ms.size(),
                                std::memory_order_relaxed);
        if (rs.status == Status::kOk) {
          rr.batch.editions[b] = std::move(edition);
          rr.artifacts[b] = path;
          rr.artifact_crcs[b] = crc;
          progress.committed.fetch_add(1, std::memory_order_relaxed);
          TELEM_COUNT("batch.editions_stamped", 1);
        } else if (rs.status != Status::kExhausted) {
          // Permanent failure: recorded so a resume retries it last, and
          // surfaced on the edition (kExhausted slots stay resumable).
          journal.append(b, BuyerPhase::kFailed);
          slot.status = rs.status;
          log::error("batch.edition.failed")
              .field("buyer", b)
              .field("status", to_string(rs.status))
              .field("error", permanent_error.empty() ? rs.last_error
                                                      : permanent_error);
        }
        // rs.status == kExhausted leaves the prefilled kExhausted slot:
        // the journal still says embedding/verified, so the next resume
        // picks this buyer up again.
      },
      bo.budget);
  }
  if (options.heartbeat_ms > 0) progress.publish(/*final_report=*/true);

  rr.recovered = progress.recovered.load();
  rr.retries = total_retries.load();
  rr.batch.status = loop_status;
  if (loop_status == Status::kExhausted && bo.budget != nullptr) {
    rr.batch.exhausted_at = bo.budget->died_in();
  }
  // Slots outside [rb, re) keep their prefilled kExhausted status but are
  // someone else's shard — only this range gates pending/ok.
  std::size_t pending = 0, stamped = 0;
  for (std::size_t b = rb; b < re; ++b) {
    if (rr.batch.editions[b].status == Status::kExhausted) ++pending;
    else ++stamped;
  }
  if (pending > 0) {
    rr.status = Status::kExhausted;
    std::ostringstream os;
    os << pending << " buyer(s) pending; rerun with journal '"
       << journal_path << "' to resume";
    rr.message = os.str();
    rr.batch.status = Status::kExhausted;
  } else {
    rr.status = Status::kOk;
    rr.batch.status = Status::kOk;
    for (std::size_t b = rb; b < re; ++b) {
      if (rr.batch.editions[b].status == Status::kInfeasible) {
        rr.status = Status::kInfeasible;
        rr.batch.status = Status::kInfeasible;
        break;
      }
    }
  }
  log::info("batch.resumable.done")
      .field("buyers", re - rb)
      .field("recovered", rr.recovered)
      .field("stamped", stamped - rr.recovered)
      .field("pending", pending)
      .field("retries", rr.retries)
      .field("journal", journal_path)
      .field("status", to_string(rr.status));
  return rr;
}

}  // namespace odcfp::dist
