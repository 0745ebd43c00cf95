#include "dist/runner.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "benchgen/benchmarks.hpp"
#include "common/atomic_io.hpp"
#include "common/check.hpp"
#include "common/journal.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/retry.hpp"
#include "common/telemetry.hpp"
#include "common/trace.hpp"
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

/// One pending (kExhausted) slot per buyer of the run, carrying the
/// buyer's seed under `seed`.
void prefill_pending(std::vector<BuyerEdition>& editions, std::size_t n,
                     std::uint64_t seed) {
  editions.resize(n);
  for (std::size_t b = 0; b < n; ++b) {
    editions[b].buyer = b;
    editions[b].seed = buyer_seed(seed, b);
    editions[b].status = Status::kExhausted;
  }
}

/// Liveness sidecar of a heartbeating shard: every `interval_ms` it
/// appends a journal heartbeat (serialized with the workers' appends on
/// the journal's mutex) and flushes an armed trace, so a SIGKILLed
/// process loses at most one interval of its timeline, until destroyed.
class HeartbeatTicker {
 public:
  HeartbeatTicker(Journal* journal, std::int64_t interval_ms) {
    if (interval_ms <= 0) return;
    thread_ = std::thread([this, journal, interval_ms] {
      std::unique_lock<std::mutex> lock(mu_);
      for (std::uint64_t beat = 1; !stop_; ++beat) {
        lock.unlock();
        journal->heartbeat(beat);
        if (trace::armed()) trace::flush();
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
                               const RunSpec& spec,
                               const ShardOptions& options) {
  // The span keeps its name: gated telemetry trees (bench/baselines)
  // pin it.
  TELEM_SPAN("batch_fingerprint_resumable");
  const std::string journal_path = shard_journal_path(run_dir, options.shard);
  const std::string artifact_dir = editions_dir(run_dir);
  ResumableBatchResult rr;
  rr.journal_path = journal_path;
  const std::size_t n = spec.num_buyers;
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

  BatchOptions bo;
  bo.seed = spec.batch_seed;
  bo.max_delay_overhead = spec.max_delay_overhead;
  bo.pool = options.pool;
  bo.budget = options.budget;
  if (budget_exhausted(bo.budget)) {
    // Nothing on disk was touched yet: every buyer of the shard stays
    // pending, and a rerun starts as this run would have.
    prefill_pending(rr.batch.editions, n, bo.seed);
    rr.status = Status::kExhausted;
    rr.batch.status = Status::kExhausted;
    rr.batch.exhausted_at = bo.budget->died_in();
    rr.message = std::to_string(re - rb) +
                 " buyer(s) pending; the budget died before the journal "
                 "was opened, rerun to resume";
    return rr;
  }
  if (!atomic_io::make_dirs(artifact_dir)) {
    return fail("cannot create artifact dir '" + artifact_dir + "'");
  }
  std::vector<BuyerPhase> phases(n, BuyerPhase::kQueued);
  std::vector<std::uint32_t> committed_crc(n, 0);
  const JournalHeader header = run_header(spec);
  Journal journal;
  bool fresh = true;

  if (atomic_io::exists(journal_path)) {
    Outcome<JournalReplay> replayed = read_journal(journal_path);
    if (!replayed.ok()) return fail(replayed.message());
    const JournalReplay& replay = replayed.value();
    if (replay.has_header) {
      if (replay.header != header) {
        return fail("journal '" + journal_path +
                    "' belongs to a different run (its header is not "
                    "this run.spec's)");
      }
      phases = replay.phase_of(n);
      for (std::size_t b = rb; b < re; ++b) {
        if (phases[b] != BuyerPhase::kCommitted) continue;
        committed_crc[b] = replay.committed(b)->artifact_crc;
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
    Outcome<Journal> created = Journal::create(journal_path, header);
    if (!created.ok()) return fail(created.message());
    journal = std::move(created).value();
  }
  // Beats from here on, before anything that grows with the order is
  // built; joined (and thus silent) before the journal closes.
  const HeartbeatTicker ticker(&journal, options.heartbeat_ms);

  std::optional<RunInputs> inputs;
  try {
    inputs.emplace(spec);
  } catch (const CheckError& e) {
    return fail(e.what());
  }
  const Netlist& golden = inputs->golden;
  const CodebookSource& book = *inputs->book;

  atomic_io::remove_stale_temps(artifact_dir);

  // Trust no committed record without its artifact: the bytes must be
  // present at this run dir's final path with the checksum recorded at
  // commit time, else the buyer is demoted and re-stamped (idempotent by
  // design).
  std::vector<char> recovered(n, 0);
  for (std::size_t b = rb; b < re; ++b) {
    if (phases[b] != BuyerPhase::kCommitted) continue;
    const std::string path = edition_path(run_dir, b);
    std::string bytes;
    if (atomic_io::read_file(path, &bytes) &&
        atomic_io::crc32(bytes) == committed_crc[b]) {
      recovered[b] = 1;
    } else {
      phases[b] = BuyerPhase::kQueued;
      log::warn("batch.resume.artifact_demoted")
          .field("buyer", b)
          .field("artifact", path);
    }
  }

  const StaticTimingAnalyzer sta;
  const PowerAnalyzer power;
  rr.batch.baseline = Baseline::measure(golden, sta, power);
  prefill_pending(rr.batch.editions, n, bo.seed);

  std::atomic<std::size_t> total_recovered{0};
  std::atomic<std::size_t> total_retries{0};
  const Status loop_status = parallel_for(
      bo.pool, re - rb,
      [&](std::size_t i) {
        const std::size_t b = rb + i;
        TELEM_SPAN("batch_fingerprint.edition");
        BuyerEdition& slot = rr.batch.editions[b];
        const std::string path = edition_path(run_dir, b);
        if (recovered[b]) {
          slot.status = Status::kOk;
          slot.code = book.code_of(b);
          rr.artifacts[b] = path;
          rr.artifact_crcs[b] = committed_crc[b];
          total_recovered.fetch_add(1, std::memory_order_relaxed);
          TELEM_COUNT("batch.editions_recovered", 1);
          return;
        }
        TELEM_HIST_TIMER("batch.edition_ns");
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
              if (!journal.append(b, BuyerPhase::kCommitted,
                                  edition_relpath(b), crc)) {
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
          TELEM_COUNT("batch.editions_stamped", 1);
        } else if (rs.status != Status::kExhausted) {
          // Permanent failure: recorded so a resume retries it last, and
          // surfaced on the edition with the overheads that refused it
          // (kExhausted slots stay resumable).
          journal.append(b, BuyerPhase::kFailed);
          slot.status = rs.status;
          slot.overheads = edition.overheads;
          slot.critical_delay = edition.critical_delay;
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
  rr.recovered = total_recovered.load();
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
