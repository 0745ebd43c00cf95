#include "dist/merge.hpp"

#include <sstream>

#include "common/atomic_io.hpp"
#include "common/fault.hpp"
#include "common/journal.hpp"
#include "common/json_lite.hpp"
#include "common/log.hpp"
#include "common/record_log.hpp"
#include "common/telemetry.hpp"
#include "fingerprint/location.hpp"

namespace odcfp::dist {

namespace {

MergeResult fail(Status status, std::string message) {
  MergeResult r;
  r.status = status;
  r.message = std::move(message);
  log::error("dist.merge.failed").field("reason", r.message);
  return r;
}

std::string render_codebook(const RunSpec& spec,
                            const CodebookSource& book) {
  std::ostringstream os;
  os << "odcfp-codebook 1\n"
     << "circuit=" << spec.circuit << " buyers=" << book.num_buyers()
     << " locations=" << book.locations().size()
     << " bits=" << usable_bits(book.locations()) << "\n";
  for (std::size_t b = 0; b < book.num_buyers(); ++b) {
    os << "buyer " << b << " code";
    const FingerprintCode code = book.code_of(b);
    for (std::size_t loc = 0; loc < code.size(); ++loc) {
      os << ' ' << loc << ':';
      for (std::size_t site = 0; site < code[loc].size(); ++site) {
        if (site > 0) os << ',';
        os << static_cast<unsigned>(code[loc][site]);
      }
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace

MergeResult merge_run(
    const std::string& run_dir, const RunSpec& spec,
    const CodebookSource& book,
    const std::vector<std::pair<std::size_t, std::size_t>>& ranges) {
  MergeResult result;
  const std::size_t n = spec.num_buyers;
  result.buyers = n;

  // Pass 1: replay every shard journal, hold its header to the run's,
  // and collect the CRC each buyer's commit record pinned.
  std::vector<std::uint32_t> committed_crc(n, 0);
  const JournalHeader header = run_header(spec);
  for (std::size_t s = 0; s < ranges.size(); ++s) {
    const std::string jpath = shard_journal_path(run_dir, s);
    Outcome<JournalReplay> replayed = read_journal(jpath);
    if (!replayed.ok()) {
      return fail(replayed.status(), "shard " + std::to_string(s) + ": " +
                                         replayed.message());
    }
    const JournalReplay& replay = replayed.value();
    if (!replay.has_header) {
      return fail(Status::kExhausted,
                  "shard " + std::to_string(s) +
                      " journal has no durable header yet");
    }
    if (replay.header != header) {
      return fail(Status::kMalformedInput,
                  "shard " + std::to_string(s) +
                      " journal belongs to a different run (its header is "
                      "not this run.spec's)");
    }
    const std::vector<BuyerPhase> phases = replay.phase_of(n);
    for (std::size_t b = ranges[s].first; b < ranges[s].second; ++b) {
      if (phases[b] != BuyerPhase::kCommitted) {
        std::ostringstream os;
        os << "buyer " << b << " (shard " << s << ") is "
           << to_string(phases[b]) << ", not committed — nothing to merge";
        return fail(Status::kExhausted, os.str());
      }
      committed_crc[b] = replay.committed(b)->artifact_crc;
    }
  }

  // Pass 2: re-read every artifact where this run dir keeps it (never at
  // the path a commit record names: the dir may have moved since) and
  // hold it to the committed CRC.
  std::ostringstream verification;
  verification << "{\n  \"circuit\": " << jsonlite::quote(spec.circuit)
               << ",\n  \"buyers\": " << n << ",\n  \"editions\": [\n";
  for (std::size_t b = 0; b < n; ++b) {
    const std::string path = edition_path(run_dir, b);
    std::string bytes;
    if (!atomic_io::read_file(path, &bytes)) {
      return fail(Status::kExhausted, "buyer " + std::to_string(b) +
                                          ": artifact '" + path +
                                          "' is unreadable");
    }
    const std::uint32_t crc = atomic_io::crc32(bytes);
    if (crc != committed_crc[b]) {
      return fail(Status::kMalformedInput,
                  "buyer " + std::to_string(b) + ": artifact '" + path +
                      "' does not match the CRC its commit record pinned");
    }
    result.artifact_bytes += bytes.size();
    result.artifact_sizes.push_back(bytes.size());
    // The path relative to run_dir: merged files must compare byte-equal
    // across run directories.
    verification << "    {\"buyer\": " << b << ", \"artifact\": "
                 << jsonlite::quote(edition_relpath(b))
                 << ", \"crc32\": \"" << record_log::hex(crc, 8)
                 << "\", \"bytes\": " << bytes.size()
                 << ", \"status\": \"committed\"}"
                 << (b + 1 < n ? "," : "") << "\n";
  }
  verification << "  ]\n}\n";

  // State-derived telemetry only: nothing here may depend on scheduling,
  // shard count, retries, or respawns.
  telemetry::Node root;
  telemetry::Node& merge_node = root.children["dist_merge"];
  merge_node.count = 1;
  merge_node.counters["artifact_bytes"] =
      static_cast<std::int64_t>(result.artifact_bytes);
  merge_node.counters["buyers"] = static_cast<std::int64_t>(n);
  merge_node.counters["codeword_bits"] =
      static_cast<std::int64_t>(usable_bits(book.locations()));
  merge_node.counters["locations"] =
      static_cast<std::int64_t>(book.locations().size());
  // Artifact-size distribution: values are artifact bytes (a pure
  // function of the run's inputs), so the histogram is as deterministic
  // as the counters above and gates in CI alongside them.
  metrics::HistData& size_hist = merge_node.hists["artifact_bytes"];
  for (const std::uint64_t bytes : result.artifact_sizes) {
    size_hist.record(bytes);
  }

  const std::string out_dir = merged_dir(run_dir);
  if (!atomic_io::make_dirs(out_dir)) {
    return fail(Status::kExhausted,
                "cannot create merged dir '" + out_dir + "'");
  }
  const std::pair<std::string, std::string> files[] = {
      {out_dir + "/codebook.txt", render_codebook(spec, book)},
      {out_dir + "/verification.json", verification.str()},
      {out_dir + "/telemetry.json", telemetry::to_json(root)},
  };
  for (const auto& [path, data] : files) {
    ODCFP_FAULT_POINT("dist.merge.publish");
    const atomic_io::WriteResult wr = atomic_io::write_file_atomic(path, data);
    if (!wr.ok) {
      return fail(Status::kExhausted, "merge publish failed: " + wr.error);
    }
    result.outputs.push_back(path);
  }
  log::info("dist.merge.done")
      .field("run_dir", run_dir)
      .field("buyers", n)
      .field("artifact_bytes", result.artifact_bytes);
  return result;
}

}  // namespace odcfp::dist
