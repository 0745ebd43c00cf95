#include "workloads.hpp"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "benchgen/benchmarks.hpp"
#include "common/atomic_io.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "equiv/cec.hpp"
#include "fingerprint/batch.hpp"
#include "fingerprint/codewords.hpp"
#include "fingerprint/embedder.hpp"
#include "fingerprint/heuristics.hpp"
#include "fingerprint/location.hpp"
#include "fingerprint/streaming_codebook.hpp"
#include "io/blif.hpp"
#include "io/verilog.hpp"
#include "library/cell_library.hpp"
#include "power/power.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "timing/sta.hpp"

namespace perfbench {
namespace {

using namespace odcfp;

/// The caller plus one worker, passed to every call that takes a pool.
constexpr int kPoolThreads = 2;
/// Set-up repetitions per run; run.py reports their median.
constexpr int kSetupRepeats = 9;
/// A p50 needs ten samples beyond it, so a phase holds at least 20 ops.
constexpr std::size_t kMinOps = 20;
/// Schedule block of the warm-up ops, apart from every measured block.
constexpr std::size_t kWarmupBlock = std::size_t{1} << 30;
/// Delay limit of every edition an order ships (the paper's 10% budget).
constexpr double kEditionDelayLimit = 0.10;
/// Site selection keeps half the budget as margin: a codeword's reroute
/// and inverter options can cost more delay than the all-generic
/// configuration the heuristic measures (up to 1.2x on c432 and i8).
constexpr double kSelectionDelayLimit = kEditionDelayLimit / 2;

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Op schedules are made of blocks: every group (circuit, constraint or
/// request shape) appears once per block, in an order drawn from the
/// workload seed. Returns the group of op `index`.
std::size_t scheduled_slot(std::uint64_t seed, std::size_t index,
                           std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(mix(seed, 0x51ed27ull + index / n));
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return order[index % n];
}

/// The seed of the op that runs group `group` in block `block`. It does
/// not depend on the workload seed: every run does the same multiset of
/// ops, and the seed only draws their order. Per-op seeds drawn from the
/// workload seed would add input-driven work differences to the spread
/// between runs (see README.md).
std::uint64_t block_seed(std::size_t group, std::size_t block) {
  return mix(0x0dcf9ull + group, block);
}

/// Blocks in a phase of `seconds`: as many as take that long at the
/// workload's nominal block time on the reference host, and enough for
/// `min_ops` ops. A fixed count keeps every run's work identical.
std::size_t blocks_for(double seconds, double block_s, std::size_t block_ops,
                       std::size_t min_ops) {
  const auto timed = static_cast<std::size_t>(std::lround(seconds / block_s));
  return std::max({timed, (min_ops + block_ops - 1) / block_ops,
                   std::size_t{1}});
}

std::string describe(const std::exception& e) {
  return std::string("exception: ") + e.what();
}

/// Sums every counter of the telemetry tree by name.
void sum_counters(const telemetry::Node& node,
                  std::map<std::string, std::int64_t>& out) {
  for (const auto& [name, value] : node.counters) out[name] += value;
  for (const auto& [name, child] : node.children) sum_counters(child, out);
}

/// A closed loop: one client that issues its next op only after the
/// previous one returned.
class ClosedLoop {
 public:
  virtual ~ClosedLoop() = default;
  /// Ops per balanced block (every group once).
  virtual std::size_t block_size() const = 0;
  /// Wall time of one block on the reference host (see README.md).
  virtual double nominal_block_s() const = 0;
  /// Warm-up runs the first this-many groups once each.
  virtual std::size_t warmup_groups() const = 0;
  /// Runs the op of group `group` in schedule block `block`.
  virtual OpRecord run_group(std::uint64_t id, std::size_t group,
                             std::size_t block) = 0;

  /// Output checks made after every phase ran, for ops that cannot check
  /// themselves inside their own timing. Failures are recorded per op.
  virtual void check(std::vector<OpRecord>& /*ops*/) {}

  /// Runs op `index` of the schedule drawn from `seed`.
  OpRecord run_op(std::uint64_t id, std::size_t index, std::uint64_t seed) {
    const std::size_t n = block_size();
    return run_group(id, scheduled_slot(seed, index, n), index / n);
  }
};

// ------------------------------------------------------------ order

/// One buyer order, netlist text in to verified editions out:
/// read_verilog_string -> find_locations -> site selection -> Codebook ->
/// batch_fingerprint -> batch_verify_equivalence -> extract_code check ->
/// to_verilog_string.
class OrderWorkload final : public ClosedLoop {
 public:
  OrderWorkload(const std::vector<std::string>& circuits, std::size_t buyers,
                double block_s, ThreadPool& pool, Tracer& tracer)
      : buyers_(buyers), block_s_(block_s), pool_(pool), tracer_(tracer) {
    for (const std::string& name : circuits) {
      inputs_.push_back({name, to_verilog_string(make_benchmark(name))});
    }
  }

  std::size_t block_size() const override { return inputs_.size(); }
  double nominal_block_s() const override { return block_s_; }
  /// Warm-up is a process effect (first op ~20% slower), so the cheaper
  /// circuits suffice.
  std::size_t warmup_groups() const override {
    return std::min<std::size_t>(3, inputs_.size());
  }

  OpRecord run_group(std::uint64_t id, std::size_t group,
                     std::size_t block) override {
    const Input& in = inputs_[group];
    const std::uint64_t op_seed = block_seed(group, block);
    OpRecord rec;
    rec.id = id;
    rec.group = in.circuit;
    rec.start_ns = now_ns();
    {
      const Span root(tracer_, id, "bench", "order");
      try {
        run_order(in, op_seed, root.id(), rec);
      } catch (const std::exception& e) {
        rec.failure = describe(e);
        rec.editions = 0;
      }
    }
    rec.end_ns = now_ns();
    return rec;
  }

 private:
  struct Input {
    std::string circuit;
    std::string verilog;
  };

  void run_order(const Input& in, std::uint64_t op_seed, std::int32_t root,
                 OpRecord& rec) {
    const std::uint64_t id = rec.id;
    Netlist golden;
    {
      const Span s(tracer_, id, "io", "read_verilog_string", root);
      golden = read_verilog_string(in.verilog, default_cell_library());
    }
    std::vector<FingerprintLocation> found;
    {
      const Span s(tracer_, id, "location", "find_locations", root);
      LocationFinderOptions lo;
      lo.pool = &pool_;
      found = find_locations(golden, lo);
    }
    const std::vector<FingerprintLocation> locs =
        select_sites(golden, found, root, rec);
    std::optional<Codebook> book;
    {
      const Span s(tracer_, id, "codebook", "Codebook", root);
      book.emplace(locs, buyers_, op_seed);
    }
    BatchResult batch;
    {
      const Span s(tracer_, id, "stamp", "batch_fingerprint", root);
      BatchOptions bo;
      bo.max_delay_overhead = kEditionDelayLimit;
      bo.seed = op_seed;
      bo.pool = &pool_;
      batch = batch_fingerprint(golden, *book, sta_, power_, bo);
    }
    std::vector<Outcome<CecResult>> verdicts = [&] {
      const Span s(tracer_, id, "cec", "batch_verify_equivalence", root);
      BatchCecOptions co;
      co.pool = &pool_;
      return batch_verify_equivalence(golden, batch.editions, co);
    }();

    double delay_sum = 0;
    std::size_t proven = 0, escalated = 0, shipped = 0;
    sat::Solver::Stats sat;
    for (std::size_t b = 0; b < batch.editions.size(); ++b) {
      const BuyerEdition& e = batch.editions[b];
      const Outcome<CecResult>& v = verdicts[b];
      std::string failure;
      if (e.status != Status::kOk) {
        failure = std::string("edition status ") + to_string(e.status);
      }
      if (v.has_value()) {
        sat += v.value().sat_stats;
        const std::string& m = v.value().method;
        if (m != "sat-incremental" && m.rfind("trivial", 0) != 0) {
          ++escalated;
        }
      }
      if (v.ok() && v.value().equivalent()) {
        ++proven;
      } else if (failure.empty()) {
        failure = "edition not proven equivalent";
      }
      FingerprintCode code;
      {
        const Span s(tracer_, id, "extract", "extract_code", root);
        code = extract_code(e.netlist, golden, locs);
      }
      if (code != book->code(b) && failure.empty()) {
        failure = "extracted code differs from the codeword";
      }
      std::string shipped_text;
      {
        const Span s(tracer_, id, "io", "to_verilog_string", root);
        shipped_text = to_verilog_string(e.netlist);
      }
      if (shipped_text.empty() && failure.empty()) failure = "empty netlist";
      delay_sum += e.overheads.delay_ratio;
      if (failure.empty()) {
        ++shipped;
      } else if (rec.failure.empty()) {
        rec.failure = "buyer " + std::to_string(b) + ": " + failure;
      }
    }
    const double n = static_cast<double>(batch.editions.size());
    rec.editions = shipped;
    rec.bits = total_capacity_bits(locs);
    rec.delay_pct = n > 0 ? 100.0 * delay_sum / n : 0;
    rec.counts["location.sites"] = static_cast<double>(total_sites(found));
    rec.counts["stamp.editions"] = n;
    rec.counts["cec.editions"] = n;
    rec.counts["cec.proven"] = static_cast<double>(proven);
    rec.counts["cec.escalated"] = static_cast<double>(escalated);
    rec.counts["sat.conflicts"] = static_cast<double>(sat.conflicts);
    rec.counts["sat.decisions"] = static_cast<double>(sat.decisions);
    rec.counts["sat.propagations"] = static_cast<double>(sat.propagations);
  }

  /// The designer's site selection before any codeword is drawn: one
  /// reactive_reduce restart keeps the sites whose all-generic embedding
  /// meets kSelectionDelayLimit. Only these sites carry codewords.
  std::vector<FingerprintLocation> select_sites(
      const Netlist& golden, const std::vector<FingerprintLocation>& found,
      std::int32_t root, OpRecord& rec) {
    Netlist work = golden;
    std::optional<FingerprintEmbedder> embedder;
    {
      const Span s(tracer_, rec.id, "embed", "apply_all_generic", root);
      embedder.emplace(work, found);
      embedder->apply_all_generic();
    }
    HeuristicOutcome out;
    {
      const Span s(tracer_, rec.id, "reduce", "reactive_reduce", root);
      const Baseline base = Baseline::measure(golden, sta_, power_);
      ReactiveOptions ro;
      ro.max_delay_overhead = kSelectionDelayLimit;
      ro.restarts = 1;
      out = reactive_reduce(*embedder, base, sta_, power_, ro);
    }
    if (out.status != Status::kOk) {
      throw std::runtime_error("site selection did not finish");
    }
    rec.counts["reduce.sta_evals"] = static_cast<double>(out.sta_evaluations);
    rec.counts["reduce.kicks"] = static_cast<double>(out.random_kicks);
    rec.counts["reduce.sites_kept"] = static_cast<double>(out.sites_kept);
    std::vector<FingerprintLocation> kept;
    for (std::size_t l = 0; l < found.size(); ++l) {
      FingerprintLocation loc = found[l];
      loc.sites.clear();
      for (std::size_t i = 0; i < found[l].sites.size(); ++i) {
        if (out.code[l][i] != 0) loc.sites.push_back(found[l].sites[i]);
      }
      if (!loc.sites.empty()) kept.push_back(std::move(loc));
    }
    return kept;
  }

  std::vector<Input> inputs_;
  std::size_t buyers_;
  double block_s_;
  ThreadPool& pool_;
  Tracer& tracer_;
  const StaticTimingAnalyzer sta_;
  const PowerAnalyzer power_;
};

// ----------------------------------------------------- delay_budget

/// The Table III / Fig. 7 flow on one circuit: find_locations, embed
/// every site, one reactive_reduce restart under a delay constraint that
/// cycles through kConstraints. Trials per iteration are capped at
/// kReduceCandidates (library default 32) so a run holds enough ops; the
/// STA evaluation count stays that of the default (~380-750 on des).
class DelayBudgetWorkload final : public ClosedLoop {
 public:
  static constexpr double kConstraints[] = {0.10, 0.05, 0.01};
  static constexpr int kReduceCandidates = 4;

  DelayBudgetWorkload(const std::string& circuit, ThreadPool& pool,
                      Tracer& tracer)
      : golden_(make_benchmark(circuit)),
        base_(Baseline::measure(golden_, sta_, power_)),
        pool_(pool),
        tracer_(tracer) {}

  std::size_t block_size() const override { return std::size(kConstraints); }
  double nominal_block_s() const override { return 3.6; }
  std::size_t warmup_groups() const override { return 1; }

  OpRecord run_group(std::uint64_t id, std::size_t group,
                     std::size_t block) override {
    const double limit = kConstraints[group];
    OpRecord rec;
    rec.id = id;
    rec.group = std::to_string(static_cast<int>(limit * 100 + 0.5)) + "%";
    rec.start_ns = now_ns();
    {
      const Span root(tracer_, id, "bench", "delay_budget");
      try {
        run_reduce(limit, block_seed(group, block), root.id(), rec);
      } catch (const std::exception& e) {
        rec.failure = describe(e);
        rec.editions = 0;
      }
    }
    rec.end_ns = now_ns();
    return rec;
  }

 private:
  void run_reduce(double limit, std::uint64_t op_seed, std::int32_t root,
                  OpRecord& rec) {
    const std::uint64_t id = rec.id;
    std::vector<FingerprintLocation> locs;
    {
      const Span s(tracer_, id, "location", "find_locations", root);
      LocationFinderOptions lo;
      lo.pool = &pool_;
      locs = find_locations(golden_, lo);
    }
    Netlist work = golden_;
    std::optional<FingerprintEmbedder> embedder;
    {
      const Span s(tracer_, id, "embed", "apply_all_generic", root);
      embedder.emplace(work, locs);
      embedder->apply_all_generic();
    }
    HeuristicOutcome out;
    {
      const Span s(tracer_, id, "reduce", "reactive_reduce", root);
      ReactiveOptions ro;
      ro.max_delay_overhead = limit;
      ro.restarts = 1;
      ro.seed = op_seed;
      ro.max_candidates_per_iteration = kReduceCandidates;
      out = reactive_reduce(*embedder, base_, sta_, power_, ro);
    }
    // Independent re-measurement, not the heuristic's own report.
    const double delay =
        Overheads::measure(work, base_, sta_, power_).delay_ratio;
    bool same = false;
    {
      const Span s(tracer_, id, "sim", "random_sim_equal", root);
      same = random_sim_equal(golden_, work, 64, op_seed);
    }
    FingerprintCode code;
    {
      const Span s(tracer_, id, "extract", "extract_code", root);
      code = extract_code(work, golden_, locs);
    }
    if (out.status != Status::kOk) {
      rec.failure = std::string("reduce status ") + to_string(out.status);
    } else if (delay > limit + 1e-9) {
      rec.failure = "delay overhead over the constraint";
    } else if (!same) {
      rec.failure = "reduced netlist differs from golden in simulation";
    } else if (code != out.code) {
      rec.failure = "extracted code differs from the kept code";
    }
    rec.editions = rec.failure.empty() ? 1 : 0;
    rec.bits = out.bits_kept;
    rec.delay_pct = 100.0 * delay;
    rec.counts["location.sites"] = static_cast<double>(total_sites(locs));
    rec.counts["reduce.sta_evals"] = static_cast<double>(out.sta_evaluations);
    rec.counts["reduce.kicks"] = static_cast<double>(out.random_kicks);
    rec.counts["reduce.sites_kept"] = static_cast<double>(out.sites_kept);
  }

  const StaticTimingAnalyzer sta_;
  const PowerAnalyzer power_;
  const Netlist golden_;
  const Baseline base_;
  ThreadPool& pool_;
  Tracer& tracer_;
};

/// Runs whole blocks of ops, so every group keeps an equal share.
PhaseRecord measure_closed(ClosedLoop& w, std::uint64_t seed, double seconds,
                           int phase, std::size_t min_ops,
                           std::uint64_t& next_id,
                           std::size_t& next_index,
                           std::vector<OpRecord>& ops) {
  const std::int64_t t0 = now_ns();
  const double c0 = cpu_seconds();
  const std::size_t n = w.block_size() *
      blocks_for(seconds, w.nominal_block_s(), w.block_size(), min_ops);
  for (std::size_t k = 0; k < n; ++k) {
    OpRecord rec = w.run_op(next_id++, next_index++, seed);
    rec.phase = phase;
    ops.push_back(std::move(rec));
  }
  PhaseRecord p;
  p.wall_s = 1e-9 * static_cast<double>(now_ns() - t0);
  p.cpu_s = cpu_seconds() - c0;
  return p;
}

// ------------------------------------------------------ service_mix

/// One daemon request per op, against an in-process Server (1 executor,
/// pool of 2) driven by one client in a closed loop: submit through
/// Client, then block in Server::wait_terminal (Client::wait polls every
/// 50 ms and would quantize latency).
class ServiceMix final : public ClosedLoop {
 public:
  static constexpr const char* kCircuits[] = {"c432", "c880", "c1355"};
  /// One block covers every (circuit, buyers 2..4, verify) combination.
  static constexpr std::size_t kBlock = 18;

  ServiceMix(const std::string& state_root, ThreadPool& pool, Tracer& tracer)
      : pool_(pool), tracer_(tracer) {
    for (const char* name : kCircuits) {
      Circuit c;
      c.name = name;
      c.golden = make_benchmark(name);
      c.locs = find_locations(c.golden);
      circuits_.push_back(std::move(c));
    }
    dir_ = state_root + "/svc-" + std::to_string(::getpid());
    service::ServiceConfig config;
    config.socket_path = dir_ + "/d.sock";
    config.state_dir = dir_ + "/state";
    config.num_executors = 1;
    config.pool_threads = kPoolThreads;
    config.queue_capacity = 64;
    config.default_deadline_ms = 60'000;
    // The daemon stamps codewords over every found site, which can exceed
    // any fixed delay limit (c432: 20-44%), so it reports delay instead.
    config.max_delay_overhead = 0;
    auto started = service::Server::start(config);
    if (!started.ok()) {
      throw std::runtime_error("server start: " + started.message());
    }
    server_ = std::move(started).value();
    client_.emplace(config.socket_path);
  }

  /// Stops the daemon and deletes its state dir.
  ~ServiceMix() override {
    server_->stop();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  ServiceMix(const ServiceMix&) = delete;
  ServiceMix& operator=(const ServiceMix&) = delete;

  std::size_t block_size() const override { return kBlock; }
  double nominal_block_s() const override { return 0.8; }
  /// The first groups are the 2-buyer verify requests, one per circuit.
  std::size_t warmup_groups() const override { return std::size(kCircuits); }

  OpRecord run_group(std::uint64_t id, std::size_t group,
                     std::size_t block) override {
    const Plan plan = plan_of(group, block);
    OpRecord rec;
    rec.id = id;
    rec.group = plan.spec.circuit;
    rec.start_ns = now_ns();
    {
      const Span root(tracer_, id, "bench", "request");
      const std::int64_t sent = now_ns();
      auto reply = [&] {
        const Span s(tracer_, id, "service", "Client::submit", root.id());
        return client_->submit(plan.spec);
      }();
      rec.counts["service.submit_ms"] = 1e-6 * static_cast<double>(now_ns() - sent);
      rec.counts["service.queue_depth"] =
          static_cast<double>(server_->stats().queue_depth);
      rec.counts["service.shed"] = 1;
      if (!reply.ok()) {
        rec.failure = "submit failed: " + reply.message();
      } else if (!reply.value().accepted) {
        rec.failure = std::string("rejected: ") +
                      service::to_string(reply.value().reason);
      } else {
        rec.counts["service.shed"] = 0;
        std::string outcome;
        {
          const Span s(tracer_, id, "service", "Server::wait_terminal",
                       root.id());
          outcome = server_->wait_terminal(reply.value().id, 120'000);
        }
        if (outcome == "completed") {
          checks_.push_back({id, plan, reply.value().id});
        } else {
          rec.failure = "outcome " + (outcome.empty() ? "timeout" : outcome);
        }
      }
    }
    rec.end_ns = now_ns();
    return rec;
  }

  /// Each completed request's artifact digest must equal that of the same
  /// order stamped here, and every edition must carry a proven verdict
  /// (the daemon's for verify requests, one computed here for the others).
  void check(std::vector<OpRecord>& ops) override {
    std::map<std::uint64_t, OpRecord*> by_id;
    for (OpRecord& rec : ops) by_id[rec.id] = &rec;
    const StaticTimingAnalyzer sta;
    const PowerAnalyzer power;
    for (const Check& c : checks_) {
      const auto it = by_id.find(c.op);
      if (it == by_id.end()) continue;  // a warm-up op
      OpRecord& rec = *it->second;
      try {
        check_one(c, rec, sta, power);
      } catch (const std::exception& e) {
        rec.failure = describe(e);
      }
      if (!rec.failure.empty()) rec.editions = 0;
    }
  }

 private:
  struct Circuit {
    std::string name;
    Netlist golden;
    std::vector<FingerprintLocation> locs;
  };
  struct Plan {
    service::RequestSpec spec;
    std::size_t circuit = 0;
  };
  struct Check {
    std::uint64_t op;
    Plan plan;
    std::uint64_t request;
  };

  static Plan plan_of(std::size_t group, std::size_t block) {
    Plan p;
    p.circuit = group % std::size(kCircuits);
    p.spec.tenant = (group + block) % 2 == 0 ? "tenant-a" : "tenant-b";
    p.spec.circuit = kCircuits[p.circuit];
    p.spec.buyers = 2 + (group / std::size(kCircuits)) % 3;
    p.spec.verify = group < kBlock / 2;
    p.spec.seed = block_seed(group, block);
    return p;
  }

  void check_one(const Check& c, OpRecord& rec,
                 const StaticTimingAnalyzer& sta, const PowerAnalyzer& power) {
    const Circuit& circ = circuits_[c.plan.circuit];
    const service::RequestSpec& spec = c.plan.spec;
    auto status = client_->status(c.request);
    if (!status.ok()) {
      rec.failure = "status: " + status.message();
      return;
    }
    const std::size_t buyers = spec.buyers;
    if (status.value().committed != buyers) {
      rec.failure = "committed " + std::to_string(status.value().committed);
      return;
    }
    const StreamingCodebook book(circ.locs, buyers, spec.seed);
    BatchOptions bo;
    bo.max_delay_overhead = 0;
    bo.seed = spec.seed;
    bo.pool = &pool_;
    const BatchResult batch =
        batch_fingerprint(circ.golden, book, sta, power, bo);
    atomic_io::Crc32 digest;
    double delay_sum = 0;
    for (std::size_t b = 0; b < batch.editions.size(); ++b) {
      char line[48];
      std::snprintf(line, sizeof(line), "%zu:%08x\n", b,
                    atomic_io::crc32(to_blif_string(batch.editions[b].netlist)));
      digest.update(line);
      delay_sum += batch.editions[b].overheads.delay_ratio;
    }
    if (digest.value() != status.value().artifact_crc) {
      rec.failure = "artifact digest differs from the reference order";
      return;
    }
    if (spec.verify) {
      const std::string want =
          "verified " + std::to_string(buyers) + "/" + std::to_string(buyers);
      if (status.value().detail != want) {
        rec.failure = "daemon verdict: " + status.value().detail;
        return;
      }
    } else {
      BatchCecOptions co;
      co.pool = &pool_;
      for (const auto& v : batch_verify_equivalence(circ.golden,
                                                    batch.editions, co)) {
        if (!v.ok() || !v.value().equivalent()) {
          rec.failure = "edition not proven equivalent";
          return;
        }
      }
    }
    rec.editions = buyers;
    rec.bits = total_capacity_bits(circ.locs);
    rec.delay_pct = 100.0 * delay_sum / static_cast<double>(buyers);
  }

  ThreadPool& pool_;  // for the output checks; the daemon has its own
  Tracer& tracer_;
  std::vector<Circuit> circuits_;
  std::string dir_;
  std::unique_ptr<service::Server> server_;
  std::optional<service::Client> client_;
  std::vector<Check> checks_;
};

// ---------------------------------------------------------- runners

std::unique_ptr<ClosedLoop> make_closed(const RunOptions& options,
                                        ThreadPool& pool, Tracer& tracer) {
  if (options.workload == "order") {
    return std::make_unique<OrderWorkload>(
        std::vector<std::string>{"c880", "c432", "c1908", "i8", "c3540"}, 4,
        2.1, pool, tracer);
  }
  if (options.workload == "wide_order") {
    return std::make_unique<OrderWorkload>(std::vector<std::string>{"c880"},
                                           64, 0.2, pool, tracer);
  }
  if (options.workload == "delay_budget") {
    return std::make_unique<DelayBudgetWorkload>("des", pool, tracer);
  }
  if (options.workload == "service_mix") {
    return std::make_unique<ServiceMix>(options.state_root, pool, tracer);
  }
  throw std::runtime_error("unknown workload '" + options.workload + "'");
}

}  // namespace

RunResult run_workload(const RunOptions& options, Tracer& tracer) {
  RunResult result;
  ThreadPool pool(kPoolThreads);
  result.pool_threads = static_cast<std::size_t>(pool.num_threads());
  telemetry::set_enabled(false);
  std::unique_ptr<ClosedLoop> w;
  std::uint64_t next_id = 0;
  std::vector<OpRecord> warmup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::int64_t t0 = now_ns();
    w.reset();
    w = make_closed(options, pool, tracer);
    for (std::size_t g = 0; g < w->warmup_groups(); ++g) {
      warmup.push_back(w->run_group(next_id++, g, kWarmupBlock));
    }
    result.setup_s.push_back(1e-9 * static_cast<double>(now_ns() - t0));
  }
  for (OpRecord& rec : warmup) {
    if (!rec.failure.empty()) {
      throw std::runtime_error("warm-up op failed: " + rec.failure);
    }
  }

  // Untraced runs time one phase holding enough ops for a p50. Traced
  // runs time a short untraced reference phase for trace.overhead_pct,
  // then the traced one.
  std::size_t next_index = 0;
  const auto phase = [&](double seconds, int index, std::size_t min_ops) {
    result.phases.push_back(measure_closed(*w, options.seed, seconds, index,
                                           min_ops, next_id, next_index,
                                           result.ops));
  };
  if (!options.trace) {
    phase(options.seconds, 0, kMinOps);
  } else {
    phase(options.seconds / 2, 0, 0);
    telemetry::reset();
    telemetry::set_enabled(true);
    tracer.set_enabled(true);
    phase(options.seconds, 1, 0);
    tracer.set_enabled(false);
    telemetry::flush_thread();
    telemetry::set_enabled(false);
    sum_counters(telemetry::snapshot(), result.counters);
  }
  w->check(result.ops);
  return result;
}

}  // namespace perfbench
