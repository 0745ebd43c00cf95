// Lease journal: the supervisor's durable record of shard ownership.
//
// Every grant, revocation, completion, and the final merge is one
// record in `run_dir/leases.odcfp` (framing, torn-tail and durability
// rules: common/record_log.hpp):
//
//   odcfp-leases 1
//   H <crc8> seed=<u64> buyers=<u64> config=<hex8> label=<text>
//   L <crc8> seq=<u64> shard=<u64> epoch=<u64> event=<name> pid=<u64> wall=<u64> detail=<text>
//
// `wall=` is the supervisor's anchored wall clock (common/clock.*) at
// append time — the grant-time calibration record the trace stitcher
// aligns shard timelines against. Optional on parse (journals written
// before the field replay with wall_ns == 0, meaning "unknown"); replay
// state derivation ignores it entirely.
//
// The header is run_header(spec) (dist/shard.hpp), the header of every
// shard journal of the run too, so a lease journal can never be
// replayed against the wrong run. Lease records carry:
//
//   * shard — which contiguous buyer range (index into shard_ranges);
//   * epoch — starts at 1 and increments on every grant of that shard.
//     A worker is told its epoch on the command line and a lease is only
//     ever revoked by granting epoch+1, so a straggler from an old epoch
//     can be recognized (and its work safely ignored: shard artifacts
//     are idempotent, the batch journal dedupes by buyer);
//   * event — granted / revoked / done / merged;
//   * pid — the worker process the event concerns (0 for merged).
//
// Replay derives per-shard state deterministically: the latest event per
// shard wins. kLeased (granted, not yet done), kDone (done seen), plus
// whether the final merge record landed. A supervisor restarted after a
// SIGKILL replays this journal, SIGKILLs any pid still alive from a
// kLeased record (its PDEATHSIG should already have done so — belt and
// braces), and re-grants unfinished shards at epoch+1.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/budget.hpp"
#include "common/journal.hpp"

namespace odcfp::dist {

enum class LeaseEvent : std::uint8_t {
  kGranted = 0,  ///< Shard handed to a worker (pid, epoch).
  kRevoked,      ///< Supervisor declared the holder dead/wedged.
  kDone,         ///< Holder's range fully committed (exit code 0).
  kMerged,       ///< Final merge published (terminal, shard == 0).
};

const char* to_string(LeaseEvent event);
bool parse_lease_event(const std::string& text, LeaseEvent* out);

struct LeaseRecord {
  std::uint64_t seq = 0;
  std::uint64_t shard = 0;
  std::uint64_t epoch = 0;
  LeaseEvent event = LeaseEvent::kGranted;
  std::uint64_t pid = 0;
  std::uint64_t wall_ns = 0;  ///< Anchored wall time of the append
                              ///< (0 = record predates the field).
  std::string detail;  ///< Free-text reason (last field, may be empty).
};

/// Per-shard ownership state derived from replay.
enum class ShardState : std::uint8_t {
  kUnassigned = 0,  ///< Never granted, or last grant was revoked.
  kLeased,          ///< Granted and neither revoked nor done.
  kDone,            ///< Completed; terminal.
};

struct ShardLease {
  ShardState state = ShardState::kUnassigned;
  std::uint64_t epoch = 0;  ///< Highest epoch ever granted (0 = never).
  std::uint64_t pid = 0;    ///< Holder pid of the last grant.
};

struct LeaseReplay {
  bool has_header = false;
  JournalHeader header;
  std::vector<LeaseRecord> records;
  bool torn_tail = false;
  std::uint64_t valid_bytes = 0;
  std::uint64_t next_seq = 0;
  bool merged = false;  ///< A kMerged record landed (run is complete).

  /// Latest state per shard (index < num_shards; later records win).
  std::vector<ShardLease> lease_states(std::size_t num_shards) const;
};

/// Replays a lease journal under the record_log torn-tail contract. A
/// sequence regression, or a record naming a shard at or past the
/// header's buyer count, is kMalformedInput too.
Outcome<LeaseReplay> read_lease_journal(const std::string& path);

/// One grant of a shard and the record that closed it, if any.
struct LeaseInterval {
  std::uint64_t epoch = 0;
  std::uint64_t pid = 0;
  std::uint64_t begin_wall_ns = 0;  ///< The grant's wall (0 = unknown).
  /// The closing record's wall; an open lease runs to the last wall
  /// time the journal recorded.
  std::uint64_t end_wall_ns = 0;
  bool closed = false;   ///< A revoked or done record of its epoch landed.
  bool revoked = false;  ///< ... and it was a revocation.
  std::string detail;    ///< The closing record's detail.

  /// "open", "revoked" or "done".
  const char* end_name() const {
    return !closed ? "open" : revoked ? "revoked" : "done";
  }
  /// Wall time under the lease (0 when unknown).
  std::uint64_t duration_ns() const {
    return begin_wall_ns != 0 && end_wall_ns >= begin_wall_ns
               ? end_wall_ns - begin_wall_ns
               : 0;
  }
};

/// Every shard's lease chain, rebuilt from a replay's records for the
/// trace stitcher and the run report.
struct LeaseChains {
  /// Grants in journal order, per shard; sized one past the highest
  /// shard a non-merge record names.
  std::vector<std::vector<LeaseInterval>> shards;
  std::uint64_t first_wall_ns = 0;  ///< Earliest nonzero record wall.
  std::uint64_t last_wall_ns = 0;   ///< Latest record wall.
  bool merged = false;              ///< A merged record landed ...
  std::uint64_t merged_wall_ns = 0;  ///< ... at this wall (the last one).
};

/// A revoked/done record closes the newest still-open grant of its
/// shard and epoch; a record without a matching grant closes nothing.
LeaseChains lease_chains(const std::vector<LeaseRecord>& records);

/// Payload codec of the `L` record, which the replay and the writer
/// share and the record-log contract tests pin byte for byte.
std::string lease_payload(const LeaseRecord& record);
bool parse_lease_payload(std::string_view payload, LeaseRecord* out);

/// Appending writer (a record_log::Writer). Single-process use (only the
/// supervisor writes leases), but thread-safe anyway.
class LeaseJournal {
 public:
  LeaseJournal();
  ~LeaseJournal();
  LeaseJournal(LeaseJournal&&) noexcept;
  LeaseJournal& operator=(LeaseJournal&&) noexcept;
  LeaseJournal(const LeaseJournal&) = delete;
  LeaseJournal& operator=(const LeaseJournal&) = delete;

  /// Creates (truncating) with a durable magic + header.
  static Outcome<LeaseJournal> create(const std::string& path,
                                      const JournalHeader& header);

  /// Opens for appending after replay (record_log::Writer::reopen).
  static Outcome<LeaseJournal> append_to(const std::string& path,
                                         const LeaseReplay& replay);

  /// Durably appends one lease event (fault site "dist.lease.append").
  bool append(std::uint64_t shard, std::uint64_t epoch, LeaseEvent event,
              std::uint64_t pid, const std::string& detail = "",
              std::string* error = nullptr);

  bool is_open() const;
  const std::string& path() const;

 private:
  record_log::Writer writer_;
};

}  // namespace odcfp::dist
