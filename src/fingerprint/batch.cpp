#include "fingerprint/batch.hpp"

#include <algorithm>
#include <atomic>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "fingerprint/embedder.hpp"
#include "netlist/netlist.hpp"

namespace odcfp {

std::uint64_t buyer_seed(std::uint64_t base, std::size_t buyer) {
  // The multiplier keeps buyer 0 from collapsing onto the base seed.
  Rng mix(base ^ (0x9e3779b97f4a7c15ull *
                  (static_cast<std::uint64_t>(buyer) + 1)));
  return mix.next_u64();
}

BuyerEdition make_edition(const Netlist& golden, const CodebookSource& book,
                          std::size_t buyer, const Baseline& baseline,
                          const StaticTimingAnalyzer& sta,
                          const PowerAnalyzer& power,
                          const BatchOptions& options) {
  BuyerEdition edition;
  edition.buyer = buyer;
  edition.seed = buyer_seed(options.seed, buyer);
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
    result.editions[b].seed = buyer_seed(options.seed, b);
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
