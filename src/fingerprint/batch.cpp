#include "fingerprint/batch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "common/atomic_io.hpp"
#include "common/check.hpp"
#include "common/journal.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "fingerprint/embedder.hpp"
#include "io/blif.hpp"
#include "netlist/netlist.hpp"

namespace odcfp {

namespace {

/// Per-buyer seed stream: a fixed function of the base seed and the
/// buyer index (never of scheduling order). The multiplier keeps buyer 0
/// from collapsing onto the base seed itself.
std::uint64_t derive_seed(std::uint64_t base, std::size_t buyer) {
  Rng mix(base ^ (0x9e3779b97f4a7c15ull *
                  (static_cast<std::uint64_t>(buyer) + 1)));
  return mix.next_u64();
}

/// Stamps one buyer edition: clone, embed the whole codeword, then time
/// the edition once. Pure function of (golden, book, buyer).
BuyerEdition make_edition(const Netlist& golden, const CodebookSource& book,
                          std::size_t buyer, const Baseline& baseline,
                          const StaticTimingAnalyzer& sta,
                          const PowerAnalyzer& power,
                          const BatchOptions& options) {
  BuyerEdition edition;
  edition.buyer = buyer;
  edition.seed = derive_seed(options.seed, buyer);
  edition.code = book.code_of(buyer);
  edition.netlist = golden;  // private clone: workers never share state

  FingerprintEmbedder embedder(edition.netlist, book.locations());
  embedder.apply_code(edition.code);
  // One timing pass serves both the edition's delay and its overhead.
  edition.critical_delay = sta.critical_delay(edition.netlist);
  edition.overheads = Overheads::measure(edition.netlist, baseline,
                                         edition.critical_delay, power);
  if (options.max_delay_overhead > 0 &&
      edition.overheads.delay_ratio > options.max_delay_overhead) {
    edition.status = Status::kInfeasible;
  }
  return edition;
}

}  // namespace

BatchResult batch_fingerprint(const Netlist& golden, const CodebookSource& book,
                              const StaticTimingAnalyzer& sta,
                              const PowerAnalyzer& power,
                              const BatchOptions& options) {
  TELEM_SPAN("batch_fingerprint");
  BatchResult result;
  result.baseline = Baseline::measure(golden, sta, power);

  // Pre-fill the skipped-edition marker so slots the pool never reaches
  // (shared budget died) read as kExhausted, not as stamped editions.
  result.editions.resize(book.num_buyers());
  for (std::size_t b = 0; b < result.editions.size(); ++b) {
    result.editions[b].buyer = b;
    result.editions[b].seed = derive_seed(options.seed, b);
    result.editions[b].status = Status::kExhausted;
  }

  const Status loop_status = parallel_for(
      options.pool, book.num_buyers(),
      [&](std::size_t b) {
        TELEM_SPAN("batch_fingerprint.edition");
        TELEM_HIST_TIMER("batch.edition_ns");
        result.editions[b] = make_edition(golden, book, b, result.baseline,
                                          sta, power, options);
        TELEM_COUNT("batch.editions_stamped", 1);
      },
      options.budget);

  result.status = loop_status;
  if (result.status == Status::kExhausted && options.budget != nullptr) {
    result.exhausted_at = options.budget->died_in();
  }
  if (result.status == Status::kOk) {
    for (const BuyerEdition& e : result.editions) {
      if (e.status == Status::kInfeasible) {
        result.status = Status::kInfeasible;
        break;
      }
    }
  }
  std::size_t stamped = 0;
  for (const BuyerEdition& e : result.editions) {
    if (e.status != Status::kExhausted) ++stamped;
  }
  log::info("batch.fingerprint.done")
      .field("buyers", book.num_buyers())
      .field("stamped", stamped)
      .field("status", to_string(result.status))
      .field("died_in",
             result.exhausted_at != nullptr ? result.exhausted_at : "");
  return result;
}

// ------------------------------------------------- crash-safe resume

namespace {

std::string edition_artifact_path(const std::string& dir,
                                  std::size_t buyer) {
  return dir + "/edition_" + std::to_string(buyer) + ".blif";
}

/// Checksum of everything that determines the editions' bytes besides
/// the base seed: golden structure, codebook contents, delay constraint.
/// A resumed run whose config checksum differs would silently produce
/// different artifacts, so the journal header pins it.
std::uint32_t run_config_crc(const Netlist& golden, const CodebookSource& book,
                             const BatchOptions& options) {
  // Streaming digest: one codeword in flight at a time, so a
  // million-buyer StreamingCodebook never materializes here either.
  // Byte stream (and thus CRC) identical to the old whole-string form.
  atomic_io::Crc32 crc;
  {
    std::ostringstream os;
    os << structural_signature(golden)
       << "|buyers=" << book.num_buyers()
       << "|delay=" << options.max_delay_overhead << "|codes=";
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

/// Sidecar liveness ticker: appends a heartbeat record to the journal
/// every `interval_ms` until stopped. Appends serialize on the journal's
/// internal mutex, so the ticker can run alongside pool workers.
class HeartbeatTicker {
 public:
  HeartbeatTicker(Journal* journal, std::int64_t interval_ms,
                  std::function<void()> on_beat = {}) {
    if (interval_ms <= 0) return;
    thread_ = std::thread([this, journal, interval_ms,
                           on_beat = std::move(on_beat)] {
      std::uint64_t beat = 0;
      std::unique_lock<std::mutex> lock(mu_);
      while (!stop_) {
        lock.unlock();
        journal->heartbeat(++beat);
        if (on_beat) on_beat();
        lock.lock();
        cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                     [this] { return stop_; });
      }
    });
  }

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
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace

ResumableBatchResult batch_fingerprint_resumable(
    const std::string& journal_path, const Netlist& golden,
    const CodebookSource& book, const StaticTimingAnalyzer& sta,
    const PowerAnalyzer& power, const ResumeOptions& options) {
  TELEM_SPAN("batch_fingerprint_resumable");
  const auto run_t0 = std::chrono::steady_clock::now();
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
  // The buyer range this process owns ([0, n) unless sharded).
  const std::size_t rb = options.range_begin;
  const std::size_t re = options.range_end == 0 ? n : options.range_end;
  if (re > n || (n > 0 && rb >= re)) {
    std::ostringstream os;
    os << "invalid shard range [" << rb << ", " << re << ") for " << n
       << " buyer(s)";
    return fail(os.str());
  }
  if (options.artifact_dir.empty()) {
    return fail("ResumeOptions::artifact_dir must be set");
  }
  if (!atomic_io::make_dirs(options.artifact_dir)) {
    return fail("cannot create artifact dir '" + options.artifact_dir +
                "'");
  }

  BatchOptions bo = options.batch;
  const std::uint32_t config_crc = run_config_crc(golden, book, bo);
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
  JournalHeader header;
  header.seed = bo.seed;
  header.num_buyers = n;
  header.config_crc = config_crc;
  header.label = options.label;
  if (fresh) {
    Outcome<Journal> created = Journal::create(journal_path, header);
    if (!created.ok()) return fail(created.message());
    journal = std::move(created).value();
  }

  atomic_io::remove_stale_temps(options.artifact_dir);

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
  if (fresh) {
    // Roster records: every buyer of this range enters the journal as
    // queued, so a crash before any edition finishes still leaves the
    // run's scope on disk. Failures here are advisory — commit records
    // are what gate.
    for (std::size_t b = rb; b < re; ++b) {
      journal.append(b, BuyerPhase::kQueued);
    }
  }

  rr.batch.baseline = Baseline::measure(golden, sta, power);
  rr.batch.editions.resize(n);
  for (std::size_t b = 0; b < n; ++b) {
    rr.batch.editions[b].buyer = b;
    rr.batch.editions[b].seed = derive_seed(bo.seed, b);
    rr.batch.editions[b].status = Status::kExhausted;
  }

  std::atomic<std::size_t> total_retries{0};
  std::atomic<std::size_t> recovered_count{0};
  std::atomic<std::size_t> committed_count{0};
  // Progress reports: from the heartbeat thread while the loop runs and
  // once (final) from this thread after it joins. The counts are the
  // commit-protocol's own, so a report can never claim a buyer whose
  // artifact is not already durable.
  const auto report_progress = [&](bool final_report) {
    if (!options.progress) return;
    BatchProgress p;
    p.range_begin = rb;
    p.range_end = re;
    p.committed = committed_count.load(std::memory_order_relaxed);
    p.recovered = recovered_count.load(std::memory_order_relaxed);
    p.elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - run_t0)
                       .count();
    p.final = final_report;
    options.progress(p);
  };

  Status loop_status = Status::kOk;
  {
    // Liveness sidecar for supervised shard workers: joined (and thus
    // silent) before the final progress report and the journal close.
    HeartbeatTicker ticker(&journal, options.heartbeat_interval_ms,
                           [&] { report_progress(false); });
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
          recovered_count.fetch_add(1, std::memory_order_relaxed);
          committed_count.fetch_add(1, std::memory_order_relaxed);
          TELEM_COUNT("batch.editions_recovered", 1);
          return;
        }
        TELEM_HIST_TIMER("batch.edition_ns");
        const std::string path =
            edition_artifact_path(options.artifact_dir, b);
        journal.append(b, BuyerPhase::kEmbedding);
        RetryPolicy rp = options.retry;
        rp.seed ^= slot.seed;  // per-buyer schedule, scheduling-free
        if (rp.budget == nullptr) rp.budget = bo.budget;
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
          committed_count.fetch_add(1, std::memory_order_relaxed);
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
  report_progress(/*final_report=*/true);

  rr.recovered = recovered_count.load();
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

namespace {

/// Editions per IncrementalCecSession.
constexpr std::size_t kSessionBuyers = 16;

/// One edition through the session, escalated to the budgeted checker
/// (whose simulation fallback owns the kExhausted confidence accounting)
/// when the session check exhausts its quota.
Outcome<CecResult> verify_one(const Netlist& golden,
                              IncrementalCecSession& session,
                              const BuyerEdition& e,
                              const BatchCecOptions& options) {
  CecResult r = session.check(e.netlist, options.budget);
  if (r.status != CecResult::Status::kUnknown) {
    return Outcome<CecResult>::success(std::move(r));
  }
  TELEM_COUNT("cec.incremental.escalations", 1);
  BudgetedCecOptions cec = options.cec;
  cec.seed = e.seed;  // per-buyer stream, not per-worker
  return verify_equivalence_budgeted(golden, e.netlist, options.budget,
                                     cec);
}

}  // namespace

std::vector<Outcome<CecResult>> batch_verify_equivalence(
    const Netlist& golden, const std::vector<BuyerEdition>& editions,
    const BatchCecOptions& options) {
  TELEM_SPAN("batch_verify");
  std::vector<Outcome<CecResult>> verdicts(
      editions.size(),
      Outcome<CecResult>::exhausted("edition skipped: batch budget died"));

  // Chunk buyers into sessions by index only: session composition (and
  // therefore every solver's clause/heuristic history) is invariant to
  // the pool size, which is what keeps verdicts byte-identical at any
  // thread count.
  const std::size_t num_sessions =
      (editions.size() + kSessionBuyers - 1) / kSessionBuyers;
  std::atomic<std::size_t> checks{0}, reused{0}, encoded{0}, merges{0},
      window_merges{0}, memo_hits{0};
  parallel_for(
      options.pool, num_sessions,
      [&](std::size_t s) {
        IncrementalCecSession::Options sopts;
        sopts.conflict_limit = options.cec.sat_conflict_limit;
        IncrementalCecSession session(golden, sopts);
        const std::size_t begin = s * kSessionBuyers;
        const std::size_t end =
            std::min(editions.size(), begin + kSessionBuyers);
        for (std::size_t i = begin; i < end; ++i) {
          const BuyerEdition& e = editions[i];
          if (e.status == Status::kExhausted) {
            verdicts[i] = Outcome<CecResult>::exhausted(
                "edition was never stamped (batch budget died)");
            continue;
          }
          // Leave the prefilled exhausted slot standing for editions the
          // dead budget never let us reach.
          if (budget_exhausted(options.budget)) break;
          try {
            TELEM_HIST_TIMER("cec.check_ns");
            verdicts[i] = verify_one(golden, session, e, options);
          } catch (const CheckError& err) {
            verdicts[i] = Outcome<CecResult>::malformed(err.what());
          }
        }
        checks.fetch_add(session.checks(), std::memory_order_relaxed);
        reused.fetch_add(session.gates_reused(), std::memory_order_relaxed);
        encoded.fetch_add(session.gates_encoded(),
                          std::memory_order_relaxed);
        merges.fetch_add(session.merges(), std::memory_order_relaxed);
        window_merges.fetch_add(session.window_merges(),
                                std::memory_order_relaxed);
        memo_hits.fetch_add(session.memo_hits(), std::memory_order_relaxed);
      },
      options.budget);
  // Emitted from the calling thread after the join, so the values are
  // whole-batch totals — deterministic at any thread count. The encoded
  // counter is the bench gate: a regression that silently stops reusing
  // the golden encoding inflates it and fails the baseline diff;
  // merges counts the cut points the sessions proved, window_merges the
  // share of them a window proved without a query, and memo_hits the
  // sweep candidates their memos answered without a proof.
  TELEM_COUNT("cec.incremental.checks",
              static_cast<std::int64_t>(checks.load()));
  TELEM_COUNT("cec.incremental.gates_reused",
              static_cast<std::int64_t>(reused.load()));
  TELEM_COUNT("cec.incremental.gates_encoded",
              static_cast<std::int64_t>(encoded.load()));
  TELEM_COUNT("cec.incremental.merges",
              static_cast<std::int64_t>(merges.load()));
  TELEM_COUNT("cec.incremental.window_merges",
              static_cast<std::int64_t>(window_merges.load()));
  TELEM_COUNT("cec.incremental.memo_hits",
              static_cast<std::int64_t>(memo_hits.load()));
  std::size_t proven = 0, exhausted = 0;
  for (const Outcome<CecResult>& v : verdicts) {
    if (v.ok()) {
      ++proven;
    } else if (v.status() == Status::kExhausted) {
      ++exhausted;
    }
  }
  log::info("batch.verify.done")
      .field("editions", editions.size())
      .field("proven", proven)
      .field("exhausted", exhausted);
  return verdicts;
}

}  // namespace odcfp
