#include "common/journal.hpp"

#include <unistd.h>

#include <string>

#include "common/clock.hpp"
#include "common/log.hpp"

namespace odcfp {

namespace {

const record_log::Format kFormat{
    "odcfp-journal 1", "journal",   true, {{'R', "record"}, {'B', "heartbeat"}},
    "journal.create",  "journal.torn_tail_dropped"};

constexpr record_log::AppendSite kRecordSite{
    "journal.append", "journal.fsync", "journal.append_failed", true};
// Liveness is advisory: a heartbeat has no fault site, takes no sequence
// number, and its failures are not logged.
constexpr record_log::AppendSite kHeartbeatSite{};

}  // namespace

const char* to_string(BuyerPhase phase) {
  switch (phase) {
    case BuyerPhase::kQueued: return "queued";
    case BuyerPhase::kEmbedding: return "embedding";
    case BuyerPhase::kVerified: return "verified";
    case BuyerPhase::kCommitted: return "committed";
    case BuyerPhase::kFailed: return "failed";
  }
  return "unknown";
}

bool parse_buyer_phase(const std::string& text, BuyerPhase* out) {
  for (const BuyerPhase p :
       {BuyerPhase::kQueued, BuyerPhase::kEmbedding, BuyerPhase::kVerified,
        BuyerPhase::kCommitted, BuyerPhase::kFailed}) {
    if (text == to_string(p)) {
      *out = p;
      return true;
    }
  }
  return false;
}

std::string entry_payload(const JournalEntry& e) {
  return "seq=" + std::to_string(e.seq) + " buyer=" + std::to_string(e.buyer) +
         " phase=" + to_string(e.phase) +
         " crc=" + record_log::hex(e.artifact_crc, 8) +
         " wall=" + std::to_string(e.wall_ns) + " artifact=" + e.artifact;
}

bool parse_entry_payload(std::string_view payload, JournalEntry* out) {
  record_log::Fields in(payload);
  std::string_view phase;
  return in.u64("seq", &out->seq) && in.u64("buyer", &out->buyer) &&
         in.text("phase", &phase) &&
         parse_buyer_phase(std::string(phase), &out->phase) &&
         in.hex("crc", &out->artifact_crc) &&
         in.optional_u64("wall", &out->wall_ns) &&
         in.tail("artifact", &out->artifact);
}

std::string heartbeat_payload(std::uint64_t pid, std::uint64_t beat,
                              std::uint64_t wall_ns) {
  return "pid=" + std::to_string(pid) + " beat=" + std::to_string(beat) +
         " wall=" + std::to_string(wall_ns);
}

bool parse_heartbeat_payload(std::string_view payload, std::uint64_t* pid,
                             std::uint64_t* beat, std::uint64_t* wall_ns) {
  record_log::Fields in(payload);
  *wall_ns = 0;
  return in.u64("pid", pid) && in.u64("beat", beat) &&
         in.optional_u64("wall", wall_ns) && in.done();
}

std::vector<BuyerPhase> JournalReplay::phase_of(
    std::size_t num_buyers) const {
  std::vector<BuyerPhase> latest(num_buyers, BuyerPhase::kQueued);
  for (const JournalEntry& e : entries) {
    if (e.buyer < num_buyers) latest[e.buyer] = e.phase;
  }
  return latest;
}

const JournalEntry* JournalReplay::committed(std::uint64_t buyer) const {
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    if (it->buyer == buyer && it->phase == BuyerPhase::kCommitted) {
      return &*it;
    }
  }
  return nullptr;
}

Outcome<JournalReplay> read_journal(const std::string& path) {
  JournalReplay replay;
  const Outcome<record_log::Scan> scan = record_log::replay(
      path, kFormat,
      [&](char tag, std::string_view payload, std::size_t line,
          std::string* why) {
        if (tag == 'B') {
          // Liveness heartbeat: CRC-checked like any record, but it
          // carries no sequence number and never enters `entries`.
          std::uint64_t pid = 0, beat = 0, wall = 0;
          if (!parse_heartbeat_payload(payload, &pid, &beat, &wall)) {
            return false;
          }
          ++replay.heartbeats;
          replay.last_heartbeat = beat;
          replay.heartbeat_walls.push_back(wall);
          return true;
        }
        JournalEntry entry;
        if (!parse_entry_payload(payload, &entry)) return false;
        if (entry.seq < replay.next_seq) {
          // Sequence regression cannot come from a torn append; the file
          // was edited or records were lost.
          *why = "sequence regression at line " + std::to_string(line) +
                 " (seq " + std::to_string(entry.seq) + " after " +
                 std::to_string(replay.next_seq) + ")";
          return false;
        }
        replay.next_seq = entry.seq + 1;
        replay.entries.push_back(std::move(entry));
        return true;
      });
  if (!scan.ok()) return Outcome<JournalReplay>::malformed(scan.message());
  replay.has_header = scan.value().has_header;
  replay.header = scan.value().header;
  replay.torn_tail = scan.value().torn_tail;
  replay.valid_bytes = scan.value().valid_bytes;
  return Outcome<JournalReplay>::success(std::move(replay));
}

// ---------------------------------------------------------------- writer

Journal::Journal() : writer_(kFormat) {}
Journal::~Journal() = default;
Journal::Journal(Journal&&) noexcept = default;
Journal& Journal::operator=(Journal&&) noexcept = default;

bool Journal::is_open() const { return writer_.is_open(); }
const std::string& Journal::path() const { return writer_.path(); }
void Journal::close() { writer_.close(); }

Outcome<Journal> Journal::create(const std::string& path,
                                 const JournalHeader& header) {
  Outcome<record_log::Writer> created =
      record_log::Writer::create(path, kFormat, &header);
  if (!created.ok()) return Outcome<Journal>::malformed(created.message());
  Journal journal;
  journal.writer_ = std::move(created).value();
  log::info("journal.created")
      .field("path", path)
      .field("seed", header.seed)
      .field("buyers", header.num_buyers)
      .field("label", header.label);
  return Outcome<Journal>::success(std::move(journal));
}

Outcome<Journal> Journal::append_to(const std::string& path,
                                    const JournalReplay& replay) {
  Outcome<record_log::Writer> opened = record_log::Writer::reopen(
      path, kFormat, replay.valid_bytes, replay.next_seq);
  if (!opened.ok()) return Outcome<Journal>::malformed(opened.message());
  Journal journal;
  journal.writer_ = std::move(opened).value();
  return Outcome<Journal>::success(std::move(journal));
}

bool Journal::append(std::uint64_t buyer, BuyerPhase phase,
                     const std::string& artifact,
                     std::uint32_t artifact_crc, std::string* error) {
  return writer_.append(
      kRecordSite,
      [&](std::uint64_t seq) {
        JournalEntry entry;
        entry.seq = seq;
        entry.buyer = buyer;
        entry.phase = phase;
        entry.artifact = artifact;
        entry.artifact_crc = artifact_crc;
        entry.wall_ns = clocks::anchored_wall_now_ns();
        return record_log::format_line('R', entry_payload(entry));
      },
      error);
}

bool Journal::heartbeat(std::uint64_t beat, std::string* error) {
  return writer_.append(
      kHeartbeatSite,
      [&](std::uint64_t) {
        return record_log::format_line(
            'B', heartbeat_payload(static_cast<std::uint64_t>(::getpid()),
                                   beat, clocks::anchored_wall_now_ns()));
      },
      error);
}

}  // namespace odcfp
