// Append-only record logs: the one file format and durability protocol
// behind the batch journal (common/journal.hpp), the supervisor's lease
// journal (dist/lease.hpp) and the daemon's request log
// (service/request_log.hpp), plus the one-record file run.spec
// (dist/shard.hpp).
//
// Framing. A log is a magic line naming its kind and version, then one
// record per line:
//
//   <magic>
//   <tag> <crc32-hex8> <payload>
//
// The tag is one byte naming the record kind; the CRC-32 covers the
// payload. A payload is `key=value` fields separated by single spaces.
// Values hold no space, except the last field's (label=, artifact=,
// detail=), which runs to the end of the line. The batch and lease
// journals carry a run header (JournalHeader) as an `H` record on line 2.
//
// Payloads. No writer writes a payload holding a newline: create,
// append and write_one refuse it with a diagnostic, so no log or
// one-record file can be written unreadable.
//
// Create. The magic line and header are written and fsync'd under a temp
// name and renamed into place (atomic_io::create_with_prologue), so a
// crash leaves either no log or the whole prologue, never an empty file.
//
// Append. Each record is one write(2) of a whole line to an O_APPEND
// descriptor under the log's mutex, then fsync. A failed or short write
// (disk full) is rolled back by truncating the file to its size before
// the append, so a partial line never sits mid-file: only the FINAL line
// can be damaged, by a crash mid-write.
//
// Replay (the torn-tail contract):
//  * an empty file is damage, not a crash before the first write, and is
//    rejected ("exists but is empty");
//  * a complete first line that is not the magic is a foreign file
//    ("bad magic line"), even when it is the only line;
//  * a final line without its newline, or whose framing, tag or CRC
//    fails, is a torn tail: replay stops before it and sets torn_tail;
//  * the same damage on a non-final line is corruption;
//  * a complete line whose CRC checks but whose payload does not parse is
//    corruption wherever it sits: no crash can write one.
// Corruption is kMalformedInput naming the path and the line.
//
// Reopen. Before the first append after a replay, the torn tail is
// truncated away, and the magic line and header are re-read from disk
// and re-validated, so a file swapped or edited since the replay is
// refused instead of extended.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/atomic_io.hpp"
#include "common/budget.hpp"

namespace odcfp {

/// Run identity in the `H` header record of the batch journal and the
/// lease journal. Every journal of a run dir carries the same one,
/// dist::run_header(spec), and a log whose header differs belongs to a
/// different run and is refused.
struct JournalHeader {
  std::uint64_t seed = 0;        ///< Base seed; per-buyer seeds derive.
  std::uint64_t num_buyers = 0;
  std::uint32_t config_crc = 0;  ///< run_spec_crc of the run's spec.
  std::string label;             ///< Human label (circuit name).

  bool operator==(const JournalHeader&) const = default;
};

namespace record_log {

// ---- field primitives (every payload parser, service::wire, tools/) ----

/// Decimal u64: one or more ASCII digits and nothing else. False, with
/// *out untouched, on any other text or a value above 2^64-1.
bool parse_u64(std::string_view text, std::uint64_t* out);

/// Decimal floating-point number ("0.1", "-2", "1e3"), the whole text,
/// and finite: no sign prefix '+', no spaces, no "nan" or "inf". False,
/// with *out untouched, otherwise. The tools parse every non-u64 flag
/// value with it.
bool parse_double(std::string_view text, double* out);

/// Exactly `width` (<= 16) lowercase hex digits. False, with *out
/// untouched, otherwise.
bool parse_hex(std::string_view text, std::size_t width, std::uint64_t* out);

/// `value` as `width` lowercase hex digits, zero-padded.
std::string hex(std::uint64_t value, std::size_t width);

/// Value of `key=` where it starts a field (at the payload start or after
/// a space, so `label=` never matches inside `run_label=`), up to the
/// next space. nullopt when the key is absent.
std::optional<std::string_view> field(std::string_view payload,
                                      std::string_view key);

/// Like field(), but the value runs to the end of the payload.
std::optional<std::string_view> tail_field(std::string_view payload,
                                           std::string_view key);

/// Reads a payload's fields in their written order. Each call consumes
/// one field and is false when the next field is not `key=` or its value
/// does not parse.
class Fields {
 public:
  explicit Fields(std::string_view payload) : rest_(payload) {}

  bool text(std::string_view key, std::string_view* out);
  bool u64(std::string_view key, std::uint64_t* out);
  /// A fixed-width hex field: 2 * sizeof(UInt) digits.
  template <class UInt>
  bool hex(std::string_view key, UInt* out) {
    std::string_view value;
    std::uint64_t v = 0;
    if (!text(key, &value) || !parse_hex(value, 2 * sizeof(UInt), &v)) {
      return false;
    }
    *out = static_cast<UInt>(v);
    return true;
  }
  /// A field a later wire version added: when the next field is not
  /// `key=`, true with *out untouched, so older records still replay.
  bool optional_u64(std::string_view key, std::uint64_t* out);
  bool optional_text(std::string_view key, std::string_view* out);
  /// The last field: its value is the rest of the payload.
  bool tail(std::string_view key, std::string* out);
  bool done() const { return rest_.empty(); }

 private:
  bool next_is(std::string_view key) const;
  bool take_key(std::string_view key);

  std::string_view rest_;
};

// ---- framing ----

/// "<tag> <crc32-hex8> <payload>\n", the CRC covering the payload.
std::string format_line(char tag, std::string_view payload);

std::string header_payload(const JournalHeader& header);
bool parse_header_payload(std::string_view payload, JournalHeader* out);

// ---- one-record files (run.spec) ----

/// Atomically replaces `path` with `magic` and one `tag` record.
atomic_io::WriteResult write_one(const std::string& path,
                                 std::string_view magic, char tag,
                                 std::string_view payload);

/// Reads a file write_one() wrote and hands its CRC-checked payload to
/// `parse`. kMalformedInput, with a diagnostic naming `noun`, when the
/// file is unreadable, foreign, damaged, or `parse` refuses the payload.
Outcome<bool> read_one(const std::string& path, std::string_view magic,
                       char tag, std::string_view noun,
                       const std::function<bool(std::string_view)>& parse);

// ---- logs ----

/// A record kind a log writes: its tag and its name in diagnostics.
struct Kind {
  char tag;
  const char* name;
};

/// What distinguishes one log's files. Formats are static constants.
struct Format {
  std::string_view magic;       ///< First line, e.g. "odcfp-journal 1".
  const char* noun;             ///< The log in diagnostics ("lease journal").
  bool has_header;              ///< Line 2 is the `H` JournalHeader record.
  std::vector<Kind> kinds;      ///< Record tags after the prologue.
  const char* create_fault;     ///< Fault site fired by create (or null).
  const char* torn_tail_event;  ///< Warning logged when reopen truncates.
};

/// One kind of append: its fault sites, whether it takes a sequence
/// number, and the warning logged when it fails (null: none).
struct AppendSite {
  const char* fault = nullptr;        ///< Fired before the write.
  const char* fsync_fault = nullptr;  ///< Fired between write and fsync.
  const char* failed_event = nullptr;
  bool sequenced = false;
};

/// What replay learned beyond the records the log's callback took.
struct Scan {
  bool has_header = false;  ///< Line 2 held an intact header.
  JournalHeader header;
  bool torn_tail = false;         ///< The final line was torn (tolerated).
  std::uint64_t valid_bytes = 0;  ///< Offset past the last intact line.
};

/// A log's per-record replay step, called in file order for every record
/// after the prologue whose tag is one of Format::kinds and whose CRC
/// checks. Returns false to reject the file: with *why left empty the
/// diagnostic is "corrupt <kind name> at line <n>", otherwise it is *why.
using OnRecord = std::function<bool(char tag, std::string_view payload,
                                    std::size_t line, std::string* why)>;

/// Replays `path` under the torn-tail contract above.
Outcome<Scan> replay(const std::string& path, const Format& format,
                     const OnRecord& on_record);

/// The append side of one open log. Appends from any thread serialize on
/// an internal mutex. Move-only.
class Writer {
 public:
  /// A closed writer for `format` (static storage: it is not copied).
  explicit Writer(const Format& format);
  ~Writer();
  Writer(Writer&&) noexcept;
  Writer& operator=(Writer&&) noexcept;
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Creates (replacing) `path` — parent directories are made — holding
  /// the magic line and, when the format has one, `*header`, durably.
  static Outcome<Writer> create(const std::string& path,
                                const Format& format,
                                const JournalHeader* header);

  /// Opens `path` for appending after a replay that found `valid_bytes`
  /// intact: truncates the torn tail, then re-validates the on-disk magic
  /// line and header. Sequence numbers continue from `next_seq`.
  static Outcome<Writer> reopen(const std::string& path,
                                const Format& format,
                                std::uint64_t valid_bytes,
                                std::uint64_t next_seq);

  /// Durably appends the line `make_line(seq)` builds. A sequenced site
  /// consumes `seq` once the whole line is written, even if the fsync
  /// after it fails, so a retried append never repeats a number. On
  /// failure returns false with a diagnostic in *error; the log stays
  /// usable unless even the rollback failed.
  bool append(const AppendSite& site,
              const std::function<std::string(std::uint64_t seq)>& make_line,
              std::string* error);

  bool is_open() const;
  const std::string& path() const;
  void close();

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace record_log
}  // namespace odcfp
