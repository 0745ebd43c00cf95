// Durable request log of the fingerprinting service daemon.
//
// The daemon's accepted-work ledger (framing, torn-tail and durability
// rules: common/record_log.hpp):
//
//   odcfp-requests 1
//   A <crc8> id=<u64> tenant=<name> circuit=<name> buyers=<u64> seed=<u64> deadline=<u64> priority=<int> verify=<0|1> wall=<u64> label=<text>
//   T <crc8> id=<u64> committed=<u64> crc=<hex8> outcome=<name> detail=<text>
//
//   A — admitted. Appended (and fsynced) BEFORE the accepted reply
//       leaves the socket, so "the client heard accepted" implies "the
//       request survives a crash". Carries the full request spec: replay
//       needs nothing else to re-run the request deterministically.
//   T — terminal. The request finished: completed, degraded (deadline
//       hit, partial artifacts committed), shed (queue timeout), or
//       failed. Carries the outcome, committed-artifact count, and an
//       artifact digest for completed runs.
//
// Replay contract (restart after SIGKILL): every A without a matching T
// is re-enqueued. Each request's run dir (state_dir/runs/req_<id>, a
// one-shard run: run.spec, shard_0.journal, editions/) then resumes its
// per-buyer work byte-identically from the shard journal, so a request
// interrupted mid-run completes with exactly the artifacts an
// uninterrupted run would have produced — the soak test's "zero
// accepted-then-lost, byte-identical artifacts" guarantee is the
// composition of these two logs. A request dir an older daemon left
// (its journal under another name, no run.spec) is re-stamped in full
// under this layout, to the same bytes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/budget.hpp"
#include "common/record_log.hpp"

namespace odcfp::service {

/// Everything needed to run one fingerprinting request. All fields ride
/// the wire and the request log; replay rebuilds the run's inputs from
/// them alone (a streaming-codebook dist::RunSpec and dist::RunInputs).
/// `tenant` and `label` hold no byte below 0x20: the shape gate refuses
/// one, since a newline would split the logged record.
struct RequestSpec {
  std::string tenant;
  std::string circuit;       ///< benchgen name (make_benchmark)
  std::uint64_t buyers = 0;  ///< codebook size
  std::uint64_t seed = 0;    ///< codebook keystream + batch seed
  std::uint64_t deadline_ms = 0;  ///< 0 = server default
  bool verify = false;       ///< run CEC of every edition after stamping
  std::string label;         ///< free text, conventionally last on wire
};

struct AdmittedRecord {
  std::uint64_t id = 0;
  RequestSpec spec;
  int priority = 0;
  /// Anchored wall clock at admission. Deadlines are wall-anchored so a
  /// restarted daemon resumes the ORIGINAL deadline, not a fresh one.
  std::uint64_t wall_ns = 0;
};

struct TerminalRecord {
  std::uint64_t id = 0;
  /// "completed" | "degraded" | "shed_timeout" | "failed".
  std::string outcome;
  std::uint64_t committed = 0;  ///< artifacts committed (incl. recovered)
  /// Digest over the committed artifacts (0 unless completed): crc32 of
  /// the concatenated per-buyer artifact crc32s in buyer order.
  std::uint32_t artifact_crc = 0;
  std::string detail;  ///< free text, last on wire
};

struct RequestLogReplay {
  std::vector<AdmittedRecord> admitted;  ///< append order
  std::map<std::uint64_t, TerminalRecord> terminal;
  std::uint64_t next_id = 1;
  std::uint64_t valid_bytes = 0;
  bool torn_tail = false;

  /// Admitted requests with no terminal record — the replay work list,
  /// in admission order.
  std::vector<AdmittedRecord> pending() const;
};

/// Reads a request log under the record_log torn-tail contract.
Outcome<RequestLogReplay> read_request_log(const std::string& path);

/// Append-side handle (a record_log::Writer): appends are serialized
/// internally; one writer process per log.
class RequestLog {
 public:
  RequestLog();
  ~RequestLog();
  RequestLog(RequestLog&&) noexcept;
  RequestLog& operator=(RequestLog&&) noexcept;

  /// Creates a fresh log (truncating any existing file).
  static Outcome<RequestLog> create(const std::string& path);

  /// Opens an existing log for appending after replay
  /// (record_log::Writer::reopen).
  static Outcome<RequestLog> append_to(const std::string& path,
                                       const RequestLogReplay& replay);

  bool append_admitted(const AdmittedRecord& record,
                       std::string* error = nullptr);
  bool append_terminal(const TerminalRecord& record,
                       std::string* error = nullptr);

  bool is_open() const;
  void close();

 private:
  record_log::Writer writer_;
};

}  // namespace odcfp::service
