// google-benchmark micro-benchmarks of the substrates: simulation
// throughput, STA, location finding, embedding, SAT-based CEC, netlist
// text I/O (one Verilog or BLIF write, one Verilog read), and one netlist
// copy plus its free (what every buyer edition starts with).
#include <benchmark/benchmark.h>

#include "benchgen/benchmarks.hpp"
#include "common/rng.hpp"
#include "equiv/cec.hpp"
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
  std::size_t which = 0;
  for (auto _ : state) {
    const std::size_t f = which++ % e.num_sites();
    const auto ref = e.site_ref(f);
    e.apply(ref.loc, ref.site, 1);
    tracker.update(timing_seeds(work, e.touched_gates(ref.loc, ref.site)));
    benchmark::DoNotOptimize(tracker.critical_delay());
    const auto pre = timing_seeds(work, e.touched_gates(ref.loc, ref.site));
    e.remove(ref.loc, ref.site);
    tracker.update(pre);
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

}  // namespace

int main(int argc, char** argv) {
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
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
