// google-benchmark micro-benchmarks of the substrates: simulation
// throughput, STA, location finding, embedding, SAT-based CEC, netlist
// text I/O (one Verilog or BLIF write, one Verilog read), one netlist
// copy plus its free (what every buyer edition starts with), the calls
// every edition goes through (make_edition, a check in a 16-edition
// IncrementalCecSession, extract_code), topo_order, including a
// 100,000-gate chain whose ready ids alternate between the two ends, and
// one reactive_reduce restart.
#include <benchmark/benchmark.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "benchgen/benchmarks.hpp"
#include "common/rng.hpp"
#include "equiv/cec.hpp"
#include "fingerprint/batch.hpp"
#include "fingerprint/codewords.hpp"
#include "fingerprint/embedder.hpp"
#include "fingerprint/heuristics.hpp"
#include "fingerprint/location.hpp"
#include "io/blif.hpp"
#include "io/verilog.hpp"
#include "odc/window.hpp"
#include "power/power.hpp"
#include "sim/simulator.hpp"
#include "timing/sta.hpp"

namespace {

using namespace odcfp;

const Netlist& circuit(const std::string& name) {
  static std::map<std::string, Netlist> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, make_benchmark(name)).first;
  }
  return it->second;
}

void BM_Simulation(benchmark::State& state, const std::string& name) {
  const Netlist& nl = circuit(name);
  Simulator sim(nl);
  Rng rng(5);
  for (auto _ : state) {
    sim.randomize_inputs(rng);
    sim.run();
    benchmark::DoNotOptimize(sim.output_words());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          64);  // patterns
}

void BM_Sta(benchmark::State& state, const std::string& name) {
  const Netlist& nl = circuit(name);
  const StaticTimingAnalyzer sta;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sta.critical_delay(nl));
  }
}

void BM_Power(benchmark::State& state, const std::string& name) {
  const Netlist& nl = circuit(name);
  const PowerAnalyzer power;
  for (auto _ : state) {
    benchmark::DoNotOptimize(power.analyze(nl).dynamic_power);
  }
}

void BM_FindLocations(benchmark::State& state, const std::string& name) {
  const Netlist& nl = circuit(name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(find_locations(nl));
  }
}

void BM_EmbedAll(benchmark::State& state, const std::string& name) {
  const Netlist& golden = circuit(name);
  const auto locations = find_locations(golden);
  for (auto _ : state) {
    Netlist work = golden;
    FingerprintEmbedder e(work, locations);
    e.apply_all_generic();
    benchmark::DoNotOptimize(e.num_applied());
  }
}

void BM_IncrementalSta(benchmark::State& state, const std::string& name) {
  // One apply/remove cycle with incremental arrival tracking — the inner
  // loop of the reactive heuristic.
  const Netlist& golden = circuit(name);
  Netlist work = golden;
  const auto locations = find_locations(work);
  FingerprintEmbedder e(work, locations);
  const StaticTimingAnalyzer sta;
  ArrivalTracker tracker(work, sta);
  std::vector<GateId> touched;
  std::vector<GateId> seeds;
  std::size_t which = 0;
  for (auto _ : state) {
    const std::size_t f = which++ % e.num_sites();
    const auto ref = e.site_ref(f);
    e.apply(ref.loc, ref.site, 1);
    e.touched_gates(ref.loc, ref.site, touched);
    seeds.clear();
    timing_seeds(work, touched, seeds);
    tracker.update(seeds);
    benchmark::DoNotOptimize(tracker.critical_delay());
    e.remove(ref.loc, ref.site);
    tracker.update(seeds);
    benchmark::DoNotOptimize(tracker.critical_delay());
  }
}

void BM_WindowOdc(benchmark::State& state, const std::string& name) {
  const Netlist& nl = circuit(name);
  std::vector<NetId> nets;
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    if (nl.net(n).driver != kInvalidGate && !nl.net(n).fanouts.empty()) {
      nets.push_back(n);
    }
  }
  std::size_t which = 0;
  for (auto _ : state) {
    const WindowOdcResult r =
        window_odc(nl, nets[which++ % nets.size()], {.depth = 3});
    benchmark::DoNotOptimize(r);
  }
}

void BM_SatCec(benchmark::State& state, const std::string& name) {
  const Netlist& golden = circuit(name);
  const auto locations = find_locations(golden);
  Netlist work = golden;
  FingerprintEmbedder e(work, locations);
  e.apply_all_generic();
  for (auto _ : state) {
    const CecResult r = check_equivalence_sat(golden, work);
    if (!r.equivalent()) state.SkipWithError("NOT EQUIVALENT");
    benchmark::DoNotOptimize(r);
  }
}

void BM_WriteVerilog(benchmark::State& state, const std::string& name) {
  const Netlist& nl = circuit(name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(to_verilog_string(nl));
  }
}

void BM_WriteBlif(benchmark::State& state, const std::string& name) {
  const Netlist& nl = circuit(name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(to_blif_string(nl));
  }
}

void BM_ReadVerilog(benchmark::State& state, const std::string& name) {
  const Netlist& nl = circuit(name);
  const std::string text = to_verilog_string(nl);
  for (auto _ : state) {
    benchmark::DoNotOptimize(read_verilog_string(text, nl.library()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}

void BM_CopyNetlist(benchmark::State& state, const std::string& name) {
  const Netlist& nl = circuit(name);
  for (auto _ : state) {
    Netlist copy = nl;
    benchmark::DoNotOptimize(copy);
  }
}

/// Editions per IncrementalCecSession, as batch_verify_equivalence
/// chunks them.
constexpr std::size_t kSessionEditions = 16;

/// One order on `name`: its sites, a codebook of kSessionEditions
/// buyers, and what stamping an edition reads.
struct EditionOrder {
  const Netlist& golden;
  std::vector<FingerprintLocation> locs;
  Codebook book;
  StaticTimingAnalyzer sta;
  PowerAnalyzer power;
  Baseline baseline;

  explicit EditionOrder(const std::string& name)
      : golden(circuit(name)),
        locs(find_locations(golden)),
        book(locs, kSessionEditions, 29),
        baseline(Baseline::measure(golden, sta, power)) {}

  BuyerEdition edition(std::size_t buyer) const {
    return make_edition(golden, book, buyer, baseline, sta, power, {});
  }
};

void BM_MakeEdition(benchmark::State& state, const std::string& name) {
  const EditionOrder order(name);
  std::size_t buyer = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(order.edition(buyer++ % kSessionEditions));
  }
}

void BM_CecCheck(benchmark::State& state, const std::string& name) {
  // One iteration is one session: encode the golden, then check 16
  // editions; items are editions.
  const EditionOrder order(name);
  std::vector<BuyerEdition> editions;
  for (std::size_t b = 0; b < kSessionEditions; ++b) {
    editions.push_back(order.edition(b));
  }
  for (auto _ : state) {
    IncrementalCecSession session(order.golden);
    for (const BuyerEdition& e : editions) {
      if (!session.check(e.netlist).equivalent()) {
        state.SkipWithError("NOT EQUIVALENT");
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSessionEditions));
}

void BM_ExtractCode(benchmark::State& state, const std::string& name) {
  const EditionOrder order(name);
  const BuyerEdition e = order.edition(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(extract_code(e.netlist, order.golden,
                                          order.locs));
  }
}

/// One reactive_reduce restart from the all-generic embedding, under
/// `limit` with at most `candidates` trials per iteration.
void BM_ReactiveReduce(benchmark::State& state, const std::string& name,
                       double limit, int candidates) {
  const Netlist& golden = circuit(name);
  const auto locations = find_locations(golden);
  const StaticTimingAnalyzer sta;
  const PowerAnalyzer power;
  const Baseline base = Baseline::measure(golden, sta, power);
  Netlist work = golden;
  FingerprintEmbedder e(work, locations);
  ReactiveOptions options;
  options.max_delay_overhead = limit;
  options.restarts = 1;
  options.max_candidates_per_iteration = candidates;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reactive_reduce(e, base, sta, power, options));
  }
}

void BM_TopoOrder(benchmark::State& state, const std::string& name) {
  const Netlist& nl = circuit(name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nl.topo_order());
  }
}

/// `n` buffers chained so that the one ready gate's id alternates
/// between the two ends of the id range (0, n-1, 1, n-2, ...): the case
/// a scan of a flat ready bitmap would make quadratic.
Netlist alternating_chain(std::size_t n) {
  Netlist nl;
  for (std::size_t i = 0; i < n; ++i) {
    nl.add_gate_kind(CellKind::kBuf, {nl.add_input()});
  }
  GateId prev = 0;
  std::size_t low = 1, high = n - 1;
  for (std::size_t i = 1; i < n; ++i) {
    const auto g = static_cast<GateId>(i % 2 == 1 ? high-- : low++);
    nl.reconnect_pin(g, 0, nl.gate(prev).output);
    prev = g;
  }
  nl.add_output(nl.gate(prev).output, "out");
  return nl;
}

void BM_TopoOrderAlternating(benchmark::State& state) {
  const Netlist nl = alternating_chain(100'000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nl.topo_order());
  }
}

}  // namespace

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // Fixed allocator thresholds, so what a row measures does not depend on
  // which rows ran before it. glibc otherwise starts by returning the top
  // of its heap to the system on every free that leaves more than 128 KB
  // there, and raises that limit only once a large mapped block is freed.
  // Until some earlier row has done so, each i8 copy (~300 KB) is handed
  // back on its free and faulted in again by the next copy, so
  // copy_netlist/i8 read about 3x slower alone than after the other
  // rows. One untimed copy first does not help: the threshold it leaves
  // is still below an i8 copy.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
  for (const char* name : {"c432", "c880", "c1908", "c3540"}) {
    benchmark::RegisterBenchmark(("sim/" + std::string(name)).c_str(),
                                 BM_Simulation, std::string(name));
    benchmark::RegisterBenchmark(("sta/" + std::string(name)).c_str(),
                                 BM_Sta, std::string(name));
    benchmark::RegisterBenchmark(("power/" + std::string(name)).c_str(),
                                 BM_Power, std::string(name));
    benchmark::RegisterBenchmark(
        ("find_locations/" + std::string(name)).c_str(), BM_FindLocations,
        std::string(name));
    benchmark::RegisterBenchmark(("embed_all/" + std::string(name)).c_str(),
                                 BM_EmbedAll, std::string(name));
    benchmark::RegisterBenchmark(
        ("incremental_sta/" + std::string(name)).c_str(),
        BM_IncrementalSta, std::string(name));
    benchmark::RegisterBenchmark(
        ("window_odc_d3/" + std::string(name)).c_str(), BM_WindowOdc,
        std::string(name));
    benchmark::RegisterBenchmark(
        ("write_verilog/" + std::string(name)).c_str(), BM_WriteVerilog,
        std::string(name));
    benchmark::RegisterBenchmark(("write_blif/" + std::string(name)).c_str(),
                                 BM_WriteBlif, std::string(name));
    benchmark::RegisterBenchmark(
        ("read_verilog/" + std::string(name)).c_str(), BM_ReadVerilog,
        std::string(name));
  }
  for (const char* name : {"c432", "c880"}) {
    benchmark::RegisterBenchmark(("sat_cec/" + std::string(name)).c_str(),
                                 BM_SatCec, std::string(name));
  }
  for (const char* name : {"c880", "c3540", "i8"}) {
    benchmark::RegisterBenchmark(
        ("copy_netlist/" + std::string(name)).c_str(), BM_CopyNetlist,
        std::string(name));
    benchmark::RegisterBenchmark(
        ("make_edition/" + std::string(name)).c_str(), BM_MakeEdition,
        std::string(name));
    benchmark::RegisterBenchmark(("cec_check/" + std::string(name)).c_str(),
                                 BM_CecCheck, std::string(name));
    benchmark::RegisterBenchmark(
        ("extract_code/" + std::string(name)).c_str(), BM_ExtractCode,
        std::string(name));
    benchmark::RegisterBenchmark(("topo_order/" + std::string(name)).c_str(),
                                 BM_TopoOrder, std::string(name));
  }
  // An order's site selection (5% limit, 32 candidates), and des as the
  // delay_budget workload runs it at 10% (4 candidates).
  for (const char* name : {"c432", "c3540", "i8"}) {
    benchmark::RegisterBenchmark(
        ("reactive_reduce/" + std::string(name)).c_str(), BM_ReactiveReduce,
        std::string(name), 0.05, 32);
  }
  benchmark::RegisterBenchmark("reactive_reduce/des_budget",
                               BM_ReactiveReduce, std::string("des"), 0.10,
                               4);
  benchmark::RegisterBenchmark("topo_order/alternating_100k",
                               BM_TopoOrderAlternating);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
