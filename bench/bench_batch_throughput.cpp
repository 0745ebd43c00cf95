// Batch edition throughput: editions stamped (and CEC-verified) per
// second as the thread pool grows. Each edition is an independent clone +
// embed + incremental-STA measure, so the fan-out should scale with
// cores; the determinism contract means the speedup is free — every
// configuration below also cross-checks that its editions are
// byte-identical to the serial ones.
#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/telemetry.hpp"
#include "fingerprint/batch.hpp"

using namespace odcfp;
using namespace odcfp::bench;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

/// Counter `name` summed over every node of `node`'s subtree.
std::int64_t counter_total(const telemetry::Node& node,
                           std::string_view name) {
  std::int64_t total = node.counter(name);
  for (const auto& [child_name, child] : node.children) {
    total += counter_total(child, name);
  }
  return total;
}

/// The legacy path the incremental sessions are measured against: the
/// budgeted checker per edition, re-encoding the full miter every time,
/// on each buyer's own simulation seed.
std::vector<Outcome<CecResult>> verify_each(
    const Netlist& golden, const std::vector<BuyerEdition>& editions,
    const BatchCecOptions& opt) {
  std::vector<Outcome<CecResult>> verdicts(
      editions.size(), Outcome<CecResult>::exhausted("not checked"));
  parallel_for(opt.pool, editions.size(), [&](std::size_t i) {
    BudgetedCecOptions cec = opt.cec;
    cec.seed = editions[i].seed;
    verdicts[i] = verify_equivalence_budgeted(golden, editions[i].netlist,
                                              opt.budget, cec);
  });
  return verdicts;
}

}  // namespace

int main() {
  const std::size_t kBuyers = smoke() ? 8 : 32;
  const int kThreads[] = {1, 2, 4, 8};
  BenchReport report("batch_throughput");

  std::printf("BATCH EDITION THROUGHPUT (%zu buyers per batch)\n\n",
              kBuyers);
  std::printf("%-7s %7s | editions/sec at\n", "", "");
  std::printf("%-7s %7s |", "circuit", "gates");
  for (int t : kThreads) {
    std::printf(" %8s", ("t=" + std::to_string(t)).c_str());
  }
  std::printf(" %10s %8s\n", "identical", "t4/t1");
  print_rule(76);

  std::vector<const char*> circuits = {"c880", "c1908", "c3540", "vda"};
  if (smoke()) circuits.resize(1);
  for (const char* name : circuits) {
    const PreparedCircuit prepared = prepare(name);
    const Codebook book(prepared.locations, kBuyers, 17);

    std::vector<std::string> reference;  // serial edition signatures
    std::vector<double> rates;
    bool identical = true;

    for (int threads : kThreads) {
      ThreadPool pool(threads);
      BatchOptions opt;
      opt.pool = &pool;
      opt.max_delay_overhead = 0;  // measure stamping, not the constraint

      const auto t0 = std::chrono::steady_clock::now();
      BatchResult result =
          batch_fingerprint(prepared.golden, book, sta(), power(), opt);
      const double elapsed = seconds_since(t0);
      rates.push_back(static_cast<double>(kBuyers) / elapsed);

      if (reference.empty()) {
        for (const BuyerEdition& e : result.editions) {
          reference.push_back(structural_signature(e.netlist));
        }
      } else {
        for (std::size_t b = 0; b < result.editions.size(); ++b) {
          identical &= structural_signature(result.editions[b].netlist) ==
                       reference[b];
        }
      }
    }

    std::printf("%-7s %7zu |", name, prepared.gate_count());
    for (double r : rates) std::printf(" %8.1f", r);
    std::printf(" %10s %7.2fx\n", identical ? "yes" : "NO",
                rates[2] / rates[0]);
    BenchReport::Row& row =
        report.add_row(name)
            .label("panel", "stamping")
            .metric("gates", static_cast<double>(prepared.gate_count()))
            .metric("identical", identical ? 1.0 : 0.0);
    for (std::size_t i = 0; i < rates.size(); ++i) {
      row.metric("editions_per_sec_t" + std::to_string(kThreads[i]),
                 rates[i]);
    }
  }

  std::printf("\nCEC fan-out (editions verified per second, c880, "
              "%zu buyers)\n", kBuyers);
  std::printf("legacy re-encodes the full miter per buyer; incremental "
              "shares one\nbase encoding per session and stamps only the "
              "edited cones\n");
  print_rule(64);
  {
    const PreparedCircuit prepared = prepare("c880");
    const Codebook book(prepared.locations, kBuyers, 17);
    BatchOptions stamp;
    stamp.max_delay_overhead = 0;
    const BatchResult batch =
        batch_fingerprint(prepared.golden, book, sta(), power(), stamp);

    // Verdict statuses from the first run are the reference every other
    // (path, thread-count) combination must reproduce exactly — the
    // contract the incremental rework must not bend.
    std::vector<CecResult::Status> reference;
    bool verdicts_identical = true;
    double legacy_t1 = 0, incremental_t1 = 0;
    // Cut points the serial incremental run proved, and the share of them
    // window proofs made, from the counters the batch layer emits.
    const bool count_merges = telemetry::enabled();
    std::int64_t merges = 0, window_merges = 0;
    for (const bool incremental : {false, true}) {
      for (const int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        BatchCecOptions opt;
        opt.pool = &pool;
        // Conflict limits (not wall-clock) keep every verdict
        // deterministic regardless of machine load.
        opt.cec.sat_conflict_limit = 100000;
        const bool sample = count_merges && incremental && threads == 1;
        const telemetry::Node before =
            sample ? telemetry::snapshot() : telemetry::Node{};
        const auto t0 = std::chrono::steady_clock::now();
        const auto verdicts =
            incremental
                ? batch_verify_equivalence(prepared.golden, batch.editions,
                                           opt)
                : verify_each(prepared.golden, batch.editions, opt);
        const double elapsed = seconds_since(t0);
        if (sample) {
          const telemetry::Node after = telemetry::snapshot();
          merges = counter_total(after, "cec.incremental.merges") -
                   counter_total(before, "cec.incremental.merges");
          window_merges =
              counter_total(after, "cec.incremental.window_merges") -
              counter_total(before, "cec.incremental.window_merges");
        }
        const double rate = static_cast<double>(kBuyers) / elapsed;

        std::size_t ok = 0;
        std::vector<CecResult::Status> statuses;
        for (const auto& v : verdicts) {
          ok += v.ok() && v.value().equivalent();
          statuses.push_back(v.has_value() ? v.value().status
                                           : CecResult::Status::kUnknown);
        }
        if (reference.empty()) {
          reference = statuses;
        } else {
          verdicts_identical &= statuses == reference;
        }
        if (threads == 1) {
          (incremental ? incremental_t1 : legacy_t1) = rate;
        }
        report.add_row("c880")
            .label("panel", "cec")
            .label("path", incremental ? "incremental" : "legacy")
            .metric("threads", threads)
            .metric("editions_per_sec", rate)
            .metric("equivalent", static_cast<double>(ok));
        std::printf("%-11s t=%d: %8.1f editions/s (%zu/%zu equivalent)\n",
                    incremental ? "incremental" : "legacy", threads, rate,
                    ok, verdicts.size());
      }
    }
    const double speedup =
        legacy_t1 > 0 ? incremental_t1 / legacy_t1 : 0.0;
    BenchReport::Row& summary =
        report.add_row("c880")
            .label("panel", "cec-summary")
            .metric("verdicts_identical", verdicts_identical ? 1.0 : 0.0)
            .metric("incremental_speedup_t1", speedup);
    std::printf("verdicts identical across paths and thread counts: %s\n",
                verdicts_identical ? "yes" : "NO");
    std::printf("incremental speedup (t=1): %.2fx\n", speedup);
    if (count_merges) {
      summary.metric("merges", static_cast<double>(merges))
          .metric("window_merges", static_cast<double>(window_merges));
      std::printf("cut points proven (t=1): %lld, %lld by a window\n",
                  static_cast<long long>(merges),
                  static_cast<long long>(window_merges));
    }
  }

  // Histogram roll-up (schema v3). Conflicts-per-call is a deterministic
  // multiset — conflict-limited SAT under fixed seeds — so its count and
  // bucket quantiles gate like any other telemetry-derived value. The
  // edition-latency quantiles are wall-clock; the *_ns suffix keeps
  // bench_diff.py from ever comparing them.
  if (telemetry::enabled()) {
    telemetry::flush_thread();
    const telemetry::Node snap = telemetry::snapshot();
    const metrics::HistData conflicts =
        snap.hist_total("sat.conflicts_per_call");
    const metrics::HistData edition = snap.hist_total("batch.edition_ns");
    const metrics::HistSummary cq = metrics::summarize(conflicts);
    const metrics::HistSummary eq = metrics::summarize(edition);
    report.add_row("hist_summary")
        .label("panel", "histograms")
        .metric("conflicts_calls", static_cast<double>(conflicts.count))
        .metric("conflicts_p50", static_cast<double>(cq.p50))
        .metric("conflicts_p90", static_cast<double>(cq.p90))
        .metric("conflicts_p99", static_cast<double>(cq.p99))
        .metric("edition_samples", static_cast<double>(edition.count))
        .metric("edition_p50_ns", static_cast<double>(eq.p50))
        .metric("edition_p90_ns", static_cast<double>(eq.p90))
        .metric("edition_p99_ns", static_cast<double>(eq.p99));
    std::printf("\nSAT conflicts/call: %llu calls, p50<=%llu p90<=%llu "
                "p99<=%llu\n",
                static_cast<unsigned long long>(conflicts.count),
                static_cast<unsigned long long>(cq.p50),
                static_cast<unsigned long long>(cq.p90),
                static_cast<unsigned long long>(cq.p99));
  }

  std::printf("\n(editions are byte-identical across every thread count; "
              "the pool only\n changes wall-clock, never results)\n");
  return 0;
}
