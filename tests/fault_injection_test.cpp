// Fault-injection harness (robustness tentpole).
//
// Deterministically injects the three fault classes the pipeline must
// survive — allocation-order failures inside netlist rewrites, corrupted or
// truncated BLIF bytes, and budget expiry at an arbitrary point inside a
// heuristic — and asserts the invariant of the degradation contract: the
// pipeline always returns a typed error or a valid degraded result, never
// a crash, hang, or silently corrupted netlist.
#include "common/fault.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <new>
#include <string>

#include "benchgen/benchmarks.hpp"
#include "common/atomic_io.hpp"
#include "common/budget.hpp"
#include "dist/runner.hpp"
#include "equiv/cec.hpp"
#include "fingerprint/heuristics.hpp"
#include "io/blif.hpp"
#include "odc/window.hpp"

namespace odcfp {
namespace {

struct Fixture {
  Netlist golden;
  StaticTimingAnalyzer sta;
  PowerAnalyzer power;
  Baseline base;
  std::vector<FingerprintLocation> locs;

  explicit Fixture(const char* name)
      : golden(make_benchmark(name)),
        base(Baseline::measure(golden, sta, power)),
        locs(find_locations(golden)) {}
};

// ---- hook mechanics ----

TEST(FaultPoints, NoInjectorIsANoOp) {
  EXPECT_NO_THROW(fault::point("any.site"));
  ODCFP_FAULT_POINT("any.other.site");
}

TEST(FaultPoints, ScopedInjectorInstallsAndRestores) {
  fault::FailNthAlloc inj(1, "only.this");
  {
    fault::ScopedInjector scoped(&inj);
    EXPECT_NO_THROW(fault::point("other.site"));  // prefix mismatch
    EXPECT_EQ(inj.hits(), 0u);
    EXPECT_THROW(fault::point("only.this.one"), std::bad_alloc);
    EXPECT_TRUE(inj.fired());
  }
  // Uninstalled again: the site is quiet.
  EXPECT_NO_THROW(fault::point("only.this.one"));
}

TEST(FaultPoints, FailNthAllocFiresExactlyOnce) {
  fault::FailNthAlloc inj(3);
  fault::ScopedInjector scoped(&inj);
  EXPECT_NO_THROW(fault::point("a"));
  EXPECT_NO_THROW(fault::point("b"));
  EXPECT_THROW(fault::point("c"), std::bad_alloc);
  // Later hits pass through, so recovery code can keep running under the
  // same installed injector.
  EXPECT_NO_THROW(fault::point("d"));
  EXPECT_EQ(inj.hits(), 4u);
}

TEST(FaultPoints, CancelAfterNTripsTheToken) {
  CancelToken token;
  fault::CancelAfterN inj(2, token);
  fault::ScopedInjector scoped(&inj);
  fault::point("x");
  EXPECT_FALSE(token.cancelled());
  fault::point("y");
  EXPECT_TRUE(token.cancelled());
}

// ---- fault class 1: corrupted / truncated BLIF bytes ----

// Parsing arbitrary prefixes of a valid file must always yield a typed
// outcome: Ok (the prefix happened to still be a complete model) or
// MalformedInput with a diagnostic — never a crash or an unhandled throw.
TEST(BlifFaults, TruncationSweepAlwaysTyped) {
  const std::string text = to_blif_string(make_benchmark("c17"));
  ASSERT_GT(text.size(), 40u);
  std::size_t ok = 0, malformed = 0;
  for (std::size_t len = 0; len <= text.size(); ++len) {
    const Outcome<SopNetwork> out =
        try_read_blif_string(text.substr(0, len));
    if (out.ok()) {
      ++ok;
      EXPECT_TRUE(out.has_value());
    } else {
      ++malformed;
      EXPECT_EQ(out.status(), Status::kMalformedInput) << "len " << len;
      EXPECT_FALSE(out.message().empty()) << "len " << len;
    }
  }
  EXPECT_GT(malformed, 0u);  // short prefixes lack .model
  EXPECT_GT(ok, 0u);         // the full text parses
}

// Flipping any single byte must likewise never escape the typed contract.
TEST(BlifFaults, ByteCorruptionSweepAlwaysTyped) {
  const std::string text = to_blif_string(make_benchmark("c17"));
  for (std::size_t pos = 0; pos < text.size(); ++pos) {
    for (const char garbage : {'\x01', '~', '2'}) {
      std::string bad = text;
      if (bad[pos] == garbage) continue;
      bad[pos] = garbage;
      const Outcome<SopNetwork> out = try_read_blif_string(bad);
      if (!out.ok()) {
        EXPECT_EQ(out.status(), Status::kMalformedInput)
            << "pos " << pos << " char " << static_cast<int>(garbage);
        EXPECT_FALSE(out.message().empty());
      }
    }
  }
}

TEST(BlifFaults, UnopenableFileIsMalformed) {
  const Outcome<SopNetwork> out =
      try_read_blif_file("/nonexistent/odcfp-no-such-file.blif");
  EXPECT_EQ(out.status(), Status::kMalformedInput);
  EXPECT_NE(out.message().find("cannot open"), std::string::npos);
}

// A mid-parse fault (simulated allocation failure in the line loop) is a
// CheckError-unrelated exception; the throwing read propagates it, and the
// try_ wrapper contract only covers malformed bytes. What matters is that
// the parser has no side effects to corrupt — nothing to assert beyond the
// throw itself.
TEST(BlifFaults, MidParseAllocFaultPropagates) {
  const std::string text = to_blif_string(make_benchmark("c17"));
  fault::FailNthAlloc inj(4, "io.blif");
  fault::ScopedInjector scoped(&inj);
  EXPECT_THROW(read_blif_string(text), std::bad_alloc);
  EXPECT_TRUE(inj.fired());
}

// ---- fault class 2: allocation-order faults inside netlist rewrites ----

// Sweep every allocation point hit while embedding the full fingerprint:
// for each n, the nth gate allocation throws. The embedder's strong
// exception-safety guarantee must hold at every single point — the
// netlist stays valid, and undoing the modifications that did land
// restores the golden structure bit-for-bit.
TEST(AllocFaults, EmbedderSurvivesEveryAllocationFault) {
  Fixture f("c432");
  const std::string golden_sig = structural_signature(f.golden);
  std::size_t faults_exercised = 0;
  for (std::uint64_t nth = 1;; ++nth) {
    Netlist work = f.golden;
    FingerprintEmbedder embedder(work, f.locs);
    fault::FailNthAlloc inj(nth, "netlist.add_gate");
    bool threw = false;
    {
      fault::ScopedInjector scoped(&inj);
      try {
        embedder.apply_all_generic();
      } catch (const std::bad_alloc&) {
        threw = true;
      }
    }
    if (!inj.fired()) {
      // nth exceeded the total number of allocation points: the whole
      // embedding ran fault-free and the sweep is complete.
      EXPECT_FALSE(threw);
      break;
    }
    ASSERT_TRUE(threw) << "nth " << nth;
    ++faults_exercised;
    // Never a corrupted intermediate state...
    ASSERT_NO_THROW(work.validate()) << "nth " << nth;
    // ...and the partial embedding still computes the original function.
    EXPECT_TRUE(random_sim_equal(f.golden, work, 8, nth));
    // Full rollback restores the pristine structure.
    embedder.remove_all();
    EXPECT_EQ(structural_signature(work), golden_sig) << "nth " << nth;
  }
  EXPECT_GT(faults_exercised, 10u);
}

// ---- fault class 3: budget expiry at an arbitrary mid-heuristic point ----

// Cancel the budget token at iteration n of the reactive heuristic, for a
// spread of n: the heuristic must return kExhausted with a delay-feasible
// code and a functionally intact netlist every time.
TEST(BudgetFaults, ReactiveSurvivesCancellationAtAnyIteration) {
  Fixture f("c432");
  for (const std::uint64_t nth : {1u, 2u, 5u, 20u, 100u}) {
    Netlist work = f.golden;
    FingerprintEmbedder embedder(work, f.locs);
    CancelToken token;
    Budget budget;
    budget.with_cancel(token);
    fault::CancelAfterN inj(nth, token, "heuristic.reactive.iter");
    ReactiveOptions opt;
    opt.restarts = 2;
    opt.budget = &budget;
    HeuristicOutcome out;
    {
      fault::ScopedInjector scoped(&inj);
      out = reactive_reduce(embedder, f.base, f.sta, f.power, opt);
    }
    if (token.cancelled()) {
      EXPECT_EQ(out.status, Status::kExhausted) << "nth " << nth;
    } else {
      // The heuristic finished in fewer than nth iterations — fault never
      // fired, so the run must be a clean completion.
      EXPECT_EQ(out.status, Status::kOk) << "nth " << nth;
    }
    // The returned code is feasible (possibly the blank floor).
    EXPECT_LE(out.overheads.delay_ratio, opt.max_delay_overhead + 1e-9)
        << "nth " << nth;
    ASSERT_NO_THROW(work.validate()) << "nth " << nth;
    const CecResult cec = verify_equivalence(f.golden, work);
    EXPECT_TRUE(cec.equivalent()) << "nth " << nth;
  }
}

TEST(BudgetFaults, ProactiveSurvivesCancellationMidInsertion) {
  Fixture f("c432");
  Netlist work = f.golden;
  FingerprintEmbedder embedder(work, f.locs);
  CancelToken token;
  Budget budget;
  budget.with_cancel(token);
  fault::CancelAfterN inj(3, token, "heuristic.proactive.site");
  ProactiveOptions opt;
  opt.budget = &budget;
  HeuristicOutcome out;
  {
    fault::ScopedInjector scoped(&inj);
    out = proactive_insert(embedder, f.base, f.sta, f.power, opt);
  }
  EXPECT_EQ(out.status, Status::kExhausted);
  EXPECT_LE(out.overheads.delay_ratio, opt.max_delay_overhead + 1e-9);
  ASSERT_NO_THROW(work.validate());
  EXPECT_TRUE(verify_equivalence(f.golden, work).equivalent());
}

// ---- degraded don't-care analysis ----

TEST(WindowDegradation, OdcFallsBackToLocalEstimate) {
  const Netlist nl = make_benchmark("c432");
  // Find a net whose window actually computes with default options.
  NetId victim = kInvalidNet;
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    if (nl.net(n).fanouts.empty()) continue;
    const WindowOdcResult full = window_odc(nl, n);
    if (full.computed && !full.degraded && full.window_gates > 0) {
      victim = n;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidNet);
  WindowOptions tiny;
  tiny.max_bdd_nodes = 1;  // the manager's terminals already exceed this
  const WindowOdcResult out = window_odc(nl, victim, tiny);
  EXPECT_TRUE(out.computed);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.status, Status::kExhausted);
  EXPECT_FALSE(out.output_closed);
  EXPECT_GE(out.odc_fraction, 0.0);
  EXPECT_LE(out.odc_fraction, 1.0);
  EXPECT_DOUBLE_EQ(out.odc_fraction, local_odc_fraction(nl, victim));
}

TEST(WindowDegradation, OdcStepBudgetExhausts) {
  const Netlist nl = make_benchmark("c432");
  NetId victim = kInvalidNet;
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    if (nl.net(n).fanouts.empty()) continue;
    const WindowOdcResult full = window_odc(nl, n);
    if (full.computed && !full.degraded && full.window_gates > 1) {
      victim = n;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidNet);
  Budget budget = Budget::steps(1);
  WindowOptions opt;
  opt.budget = &budget;
  const WindowOdcResult out = window_odc(nl, victim, opt);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.status, Status::kExhausted);
}

TEST(WindowDegradation, SdcDegradesToEmptyImpossibleSet) {
  const Netlist nl = make_benchmark("c432");
  const std::vector<int> levels = nl.gate_levels();
  GateId victim = kInvalidGate;
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    if (nl.gate(g).is_dead()) continue;
    // Deep gates have a non-empty fanin cone, so the budgeted BDD build
    // actually runs (level-1 gates read PIs only and build no cone BDDs).
    if (levels[g] < 2) continue;
    const WindowSdcResult full = window_sdc(nl, g);
    if (full.computed && !full.degraded) {
      victim = g;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidGate);
  WindowOptions tiny;
  tiny.max_bdd_nodes = 1;
  const WindowSdcResult out = window_sdc(nl, victim, tiny);
  EXPECT_TRUE(out.computed);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.status, Status::kExhausted);
  // The degraded impossible set is the sound empty subset.
  EXPECT_EQ(out.impossible_patterns, 0);
  EXPECT_EQ(out.impossible_mask, 0u);
}

// ---- fault class 4: transient I/O faults inside the resumable batch ----

/// A c432 order run as shard 0 of a fresh run dir under
/// ::testing::TempDir(), through the crash-safe runner.
struct IoFaultRun {
  dist::RunSpec spec;
  std::string dir;

  IoFaultRun(const char* name, std::uint64_t buyers)
      : dir(std::string(::testing::TempDir()) + name) {
    spec.circuit = "c432";
    spec.num_buyers = buyers;
    spec.codebook_seed = 11;
    spec.batch_seed = 42;
    spec.max_delay_overhead = 0;
    std::remove(dist::shard_journal_path(dir, 0).c_str());
    for (std::uint64_t b = 0; b < buyers; ++b) {
      std::remove((dist::editions_dir(dir) + "/edition_" +
                   std::to_string(b) + ".blif")
                      .c_str());
    }
  }
};

// A disk that misbehaves a handful of times and recovers: the retry
// layer absorbs the faults and the batch still commits every buyer,
// with the retries visible in the result.
TEST(IoFaults, ResumableBatchAbsorbsTransientIoFaults) {
  const IoFaultRun run("io_faults_batch", 2);
  const dist::RunInputs inputs(run.spec);
  // Two isolated faults: fewer than max_attempts per buyer, so both
  // buyers recover within their retry budgets.
  fault::FailNthIo inj(1, "atomic_io.write", 2);
  dist::ResumableBatchResult out;
  {
    fault::ScopedInjector scoped(&inj);
    out = dist::run_shard(run.dir, run.spec, inputs, {});
  }
  EXPECT_EQ(inj.fired(), 2u);
  EXPECT_EQ(out.status, Status::kOk) << out.message;
  EXPECT_GE(out.retries, 1u);
  EXPECT_EQ(out.batch.num_ok(), 2u);
}

// Faults that outlast the retry policy leave the affected buyers
// pending — typed kExhausted with a resume hint, never a throw — and a
// later healthy run completes them.
TEST(IoFaults, ResumableBatchReportsExhaustionWhenFaultsPersist) {
  const IoFaultRun run("io_faults_exhaust", 2);
  const dist::RunInputs inputs(run.spec);
  {
    fault::FailNthIo inj(1, "atomic_io", 1000);  // disk down for good
    fault::ScopedInjector scoped(&inj);
    const dist::ResumableBatchResult out =
        dist::run_shard(run.dir, run.spec, inputs, {});
    EXPECT_EQ(out.status, Status::kExhausted);
    EXPECT_NE(out.message.find("resume"), std::string::npos)
        << out.message;
  }
  const dist::ResumableBatchResult healthy =
      dist::run_shard(run.dir, run.spec, inputs, {});
  EXPECT_EQ(healthy.status, Status::kOk) << healthy.message;
}

// An alloc fault inside an edition's embedding is transient too: the
// retry re-clones from the golden netlist, so one poisoned attempt
// cannot corrupt the committed artifact.
TEST(IoFaults, ResumableBatchRetriesAllocFaultInEmbedding) {
  const IoFaultRun run("io_faults_alloc", 1);
  const dist::RunInputs inputs(run.spec);
  fault::FailNthAlloc inj(3, "netlist.add_gate");
  dist::ResumableBatchResult out;
  {
    fault::ScopedInjector scoped(&inj);
    out = dist::run_shard(run.dir, run.spec, inputs, {});
  }
  EXPECT_TRUE(inj.fired());
  EXPECT_EQ(out.status, Status::kOk) << out.message;
  EXPECT_EQ(out.batch.num_ok(), 1u);
  // The published artifact decodes to the buyer's codeword.
  std::string bytes;
  ASSERT_TRUE(atomic_io::read_file(out.artifacts[0], &bytes));
  EXPECT_FALSE(bytes.empty());
}

// ---- acceptance: hard deadline on a real benchmark ----

// A 50 ms wall-clock deadline on c880 (the paper's mid-size benchmark,
// hundreds of sites; an unbudgeted run takes far longer) must still yield
// a delay-feasible code — possibly heavily suboptimal, never a hang.
TEST(BudgetFaults, ReactiveUnderFiftyMsDeadlineStaysFeasible) {
  Fixture f("c880");
  Netlist work = f.golden;
  FingerprintEmbedder embedder(work, f.locs);
  Budget budget = Budget::deadline_ms(50);
  ReactiveOptions opt;
  opt.restarts = 3;
  opt.budget = &budget;
  const HeuristicOutcome out =
      reactive_reduce(embedder, f.base, f.sta, f.power, opt);
  // Whether or not the budget died (on a fast machine 50 ms may finish a
  // restart), the result must be feasible and functionally intact.
  EXPECT_LE(out.overheads.delay_ratio, opt.max_delay_overhead + 1e-9);
  ASSERT_NO_THROW(work.validate());
  EXPECT_TRUE(random_sim_equal(f.golden, work, 32, 7));
  if (out.status == Status::kExhausted) {
    // Degraded-path bookkeeping: the kept code matches sites_kept.
    std::size_t nonzero = 0;
    for (const auto& per_loc : out.code) {
      for (auto v : per_loc) nonzero += (v != 0);
    }
    EXPECT_EQ(nonzero, out.sites_kept);
  }
}

}  // namespace
}  // namespace odcfp
