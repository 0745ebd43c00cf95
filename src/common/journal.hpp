// Append-only, checksummed, fsync'd write-ahead journal for resumable
// batch fingerprinting.
//
// The crash-safe runner (dist::run_shard, src/dist/runner.*) records
// every buyer's lifecycle transition of its shard — embedding ->
// verified -> committed, or failed — plus a header naming its run
// (dist::run_header: the spec's batch seed, buyer count, run_spec_crc and
// label; a journal with any other header is another run's), so that a
// process killed at ANY instant can be restarted and skip exactly the
// buyers whose artifacts are already durable. A buyer with no record is
// queued; fresh journals write no queued records. The
// journal is the recovery log, not a deterministic artifact: record
// order across buyers depends on worker scheduling; the bit-identical
// guarantee lives in the artifacts the records point at.
//
// Records (framing, torn-tail and durability rules: common/record_log.hpp):
//
//   odcfp-journal 1
//   H <crc32-hex8> seed=<u64> buyers=<u64> config=<hex8> label=<text>
//   R <crc32-hex8> seq=<u64> buyer=<u64> phase=<name> crc=<hex8> wall=<u64> artifact=<path>
//   B <crc32-hex8> pid=<u64> beat=<u64> wall=<u64>
//
// A committed record's `artifact=` is the edition's path relative to
// the run dir (journals written before name an absolute path); replay
// keeps it but decides nothing by it.
//
// `wall=` is the writer's anchored wall clock (src/common/clock.*) at
// append time; it is OPTIONAL on parse — journals written before the
// field existed (and handcrafted test fixtures) replay with wall_ns == 0 —
// so readers must treat 0 as "unknown", never as the epoch. It exists
// for the run-dir readers — a shard's commit rate and edition latency
// (src/dist/status.*) and the cross-process timeline
// (src/dist/stitch.*) — since the journal is the shard's only progress
// record: replay and resume decisions ignore it. A file holding only the magic line (no
// header) replays as has_header == false and the caller starts over.
//
// Heartbeat records ("B" lines) are a sidecar liveness channel for the
// distributed supervisor (src/dist/): they carry the writer's pid and a
// beat counter, no sequence number, and never affect replay state —
// phase_of()/committed() ignore them. Their only job is to make the
// journal file grow while a worker is alive, so a supervisor watching
// the file can tell a wedged or dead worker from a slow one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/budget.hpp"
#include "common/record_log.hpp"

namespace odcfp {

/// Per-buyer lifecycle phase recorded in the journal. Transitions only
/// move forward; the latest record for a buyer wins on replay.
enum class BuyerPhase : std::uint8_t {
  kQueued = 0,  ///< No record yet (implicit initial state). Only
                ///< journals of older writers, which listed every buyer
                ///< first, hold queued records; they still replay.
  kEmbedding,   ///< A worker started stamping this buyer.
  kVerified,    ///< Embed done; extracted code matched the codeword.
  kCommitted,   ///< Artifact durable at its final path (crc recorded).
  kFailed,      ///< Permanent non-budget failure; resume retries it.
};

const char* to_string(BuyerPhase phase);
bool parse_buyer_phase(const std::string& text, BuyerPhase* out);

struct JournalEntry {
  std::uint64_t seq = 0;    ///< Writer-assigned, strictly increasing.
  std::uint64_t buyer = 0;
  BuyerPhase phase = BuyerPhase::kQueued;
  std::uint32_t artifact_crc = 0;  ///< crc32 of artifact bytes (committed).
  std::uint64_t wall_ns = 0;  ///< Anchored wall time of the append
                              ///< (0 = record predates the field).
  std::string artifact;            ///< Artifact path ("" until commit).
};

struct JournalReplay {
  bool has_header = false;
  JournalHeader header;
  std::vector<JournalEntry> entries;  ///< Every intact record, in order.
  bool torn_tail = false;             ///< Final record was torn (tolerated).
  std::uint64_t valid_bytes = 0;      ///< Offset past the last intact record.
  std::uint64_t next_seq = 0;
  std::uint64_t heartbeats = 0;       ///< Intact "B" liveness records seen.
  std::uint64_t last_heartbeat = 0;   ///< Beat counter of the last one.
  /// Anchored wall time of every intact heartbeat, in file order (0 for
  /// records predating the wall= field). The report analyzer derives
  /// heartbeat-gap anomalies from consecutive differences.
  std::vector<std::uint64_t> heartbeat_walls;

  /// Latest phase per buyer (kQueued where never mentioned). Entries for
  /// buyers >= num_buyers are ignored.
  std::vector<BuyerPhase> phase_of(std::size_t num_buyers) const;
  /// Latest committed entry for `buyer`, nullptr when none.
  const JournalEntry* committed(std::uint64_t buyer) const;
};

/// Replays a journal file under the record_log torn-tail contract. A
/// sequence regression is kMalformedInput too.
Outcome<JournalReplay> read_journal(const std::string& path);

/// Payload codecs of the `R` and `B` records, which the replay and the
/// writer share and the record-log contract tests pin byte for byte.
std::string entry_payload(const JournalEntry& entry);
bool parse_entry_payload(std::string_view payload, JournalEntry* out);
std::string heartbeat_payload(std::uint64_t pid, std::uint64_t beat,
                              std::uint64_t wall_ns);
bool parse_heartbeat_payload(std::string_view payload, std::uint64_t* pid,
                             std::uint64_t* beat, std::uint64_t* wall_ns);

/// Appending writer. Thread-safe: appends from pool workers serialize on
/// an internal mutex (each append is one durable line). Move-only.
class Journal {
 public:
  Journal();
  ~Journal();
  Journal(Journal&&) noexcept;
  Journal& operator=(Journal&&) noexcept;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Creates (truncating) a journal at `path` — parent directories are
  /// made — and durably writes the magic + header before returning.
  static Outcome<Journal> create(const std::string& path,
                                 const JournalHeader& header);

  /// Opens an existing journal for appending (record_log::Writer::reopen:
  /// the torn tail `replay` reported is truncated, and a magic line or
  /// header changed on disk since the replay is kMalformedInput).
  /// Sequence numbers continue from replay.next_seq.
  static Outcome<Journal> append_to(const std::string& path,
                                    const JournalReplay& replay);

  /// Durably appends one record (fault sites journal.append /
  /// journal.fsync). On failure — real I/O error or injected fault —
  /// returns false with a diagnostic in *error; the journal stays usable
  /// for later appends (a torn line, if any, is beyond valid replay and
  /// will be dropped on the next resume).
  bool append(std::uint64_t buyer, BuyerPhase phase,
              const std::string& artifact = "",
              std::uint32_t artifact_crc = 0,
              std::string* error = nullptr);

  /// Durably appends one liveness heartbeat ("B" line carrying this
  /// process's pid and `beat`). Heartbeats consume no sequence number
  /// and never affect replay state; a failure is reported but leaves the
  /// journal usable (liveness is advisory, lifecycle records gate).
  bool heartbeat(std::uint64_t beat, std::string* error = nullptr);

  bool is_open() const;
  const std::string& path() const;
  void close();

 private:
  record_log::Writer writer_;
};

}  // namespace odcfp
