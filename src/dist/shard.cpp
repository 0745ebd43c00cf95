#include "dist/shard.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/atomic_io.hpp"
#include "common/record_log.hpp"

namespace odcfp::dist {

namespace {

constexpr const char* kMagic = "odcfp-runspec 1";

std::string spec_payload(const RunSpec& spec) {
  std::uint64_t overhead_bits;
  static_assert(sizeof(overhead_bits) == sizeof(spec.max_delay_overhead));
  std::memcpy(&overhead_bits, &spec.max_delay_overhead,
              sizeof(overhead_bits));
  return "circuit=" + spec.circuit +
         " buyers=" + std::to_string(spec.num_buyers) +
         " cbseed=" + std::to_string(spec.codebook_seed) +
         " bseed=" + std::to_string(spec.batch_seed) +
         " overhead=" + record_log::hex(overhead_bits, 16) +
         (spec.codebook == CodebookKind::kStreaming ? " codebook=streaming"
                                                    : "") +
         " label=" + spec.label;
}

bool parse_spec_payload(std::string_view payload, RunSpec* out) {
  record_log::Fields in(payload);
  std::string_view circuit;
  std::string_view codebook = "materialized";
  std::uint64_t overhead_bits = 0;
  if (!in.text("circuit", &circuit) || !in.u64("buyers", &out->num_buyers) ||
      !in.u64("cbseed", &out->codebook_seed) ||
      !in.u64("bseed", &out->batch_seed) ||
      !in.hex("overhead", &overhead_bits) ||
      !in.optional_text("codebook", &codebook) ||
      (codebook != "materialized" && codebook != "streaming") ||
      !in.tail("label", &out->label)) {
    return false;
  }
  out->circuit = std::string(circuit);
  out->codebook = codebook == "streaming" ? CodebookKind::kStreaming
                                          : CodebookKind::kMaterialized;
  std::memcpy(&out->max_delay_overhead, &overhead_bits,
              sizeof(overhead_bits));
  return true;
}

}  // namespace

Outcome<bool> write_run_spec(const std::string& path,
                             const RunSpec& spec) {
  const atomic_io::WriteResult wr =
      record_log::write_one(path, kMagic, 'S', spec_payload(spec));
  if (!wr.ok) {
    return Outcome<bool>::exhausted("run.spec write failed: " + wr.error);
  }
  return Outcome<bool>::success(true);
}

Outcome<RunSpec> read_run_spec(const std::string& path) {
  RunSpec spec;
  const Outcome<bool> read = record_log::read_one(
      path, kMagic, 'S', "run spec",
      [&](std::string_view payload) {
        return parse_spec_payload(payload, &spec);
      });
  if (!read.ok()) return Outcome<RunSpec>::malformed(read.message());
  return Outcome<RunSpec>::success(std::move(spec));
}

Outcome<bool> pin_run_spec(const std::string& run_dir, const RunSpec& spec) {
  // A run without buyers never finishes: nothing could commit.
  if (spec.num_buyers == 0) {
    return Outcome<bool>::malformed("RunSpec::num_buyers must be > 0");
  }
  const std::string path = run_spec_path(run_dir);
  if (!atomic_io::exists(path)) {
    if (!atomic_io::make_dirs(run_dir)) {
      return Outcome<bool>::malformed("cannot create run dir '" + run_dir +
                                      "'");
    }
    return write_run_spec(path, spec);
  }
  const Outcome<RunSpec> on_disk = read_run_spec(path);
  if (!on_disk.ok()) return Outcome<bool>::malformed(on_disk.message());
  if (run_spec_crc(on_disk.value()) != run_spec_crc(spec)) {
    return Outcome<bool>::malformed("run dir '" + run_dir +
                                    "' already holds a different run.spec");
  }
  return Outcome<bool>::success(true);
}

std::uint32_t run_spec_crc(const RunSpec& spec) {
  return atomic_io::crc32(spec_payload(spec));
}

JournalHeader run_header(const RunSpec& spec) {
  JournalHeader header;
  header.seed = spec.batch_seed;
  header.num_buyers = spec.num_buyers;
  header.config_crc = run_spec_crc(spec);
  header.label = spec.label;
  return header;
}

std::vector<std::pair<std::size_t, std::size_t>> shard_ranges(
    std::size_t num_buyers, std::size_t num_shards) {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  if (num_buyers == 0 || num_shards == 0) return ranges;
  const std::size_t shards = std::min(num_shards, num_buyers);
  const std::size_t base = num_buyers / shards;
  const std::size_t extra = num_buyers % shards;
  std::size_t begin = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t len = base + (s < extra ? 1 : 0);
    ranges.emplace_back(begin, begin + len);
    begin += len;
  }
  return ranges;
}

std::string run_spec_path(const std::string& run_dir) {
  return run_dir + "/run.spec";
}

std::string lease_journal_path(const std::string& run_dir) {
  return run_dir + "/leases.odcfp";
}

std::string shard_journal_path(const std::string& run_dir,
                               std::size_t shard) {
  std::ostringstream os;
  os << run_dir << "/shard_" << shard << ".journal";
  return os.str();
}

std::string editions_dir(const std::string& run_dir) {
  return run_dir + "/editions";
}

std::string edition_relpath(std::size_t buyer) {
  return "editions/edition_" + std::to_string(buyer) + ".blif";
}

std::string edition_path(const std::string& run_dir, std::size_t buyer) {
  return run_dir + "/" + edition_relpath(buyer);
}

std::string merged_dir(const std::string& run_dir) {
  return run_dir + "/merged";
}

std::string traces_dir(const std::string& run_dir) {
  return run_dir + "/traces";
}

std::string supervisor_trace_path(const std::string& run_dir) {
  return traces_dir(run_dir) + "/supervisor.json";
}

std::string shard_trace_path(const std::string& run_dir, std::size_t shard,
                             std::uint64_t epoch) {
  std::ostringstream os;
  os << traces_dir(run_dir) << "/shard_" << shard << "_epoch_" << epoch
     << ".json";
  return os.str();
}

}  // namespace odcfp::dist
