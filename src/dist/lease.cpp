#include "dist/lease.hpp"

#include <algorithm>
#include <string>

#include "common/clock.hpp"

namespace odcfp::dist {

namespace {

const record_log::Format kFormat{
    "odcfp-leases 1", "lease journal", true, {{'L', "lease record"}},
    nullptr,          "dist.lease.torn_tail_dropped"};

constexpr record_log::AppendSite kLeaseSite{
    "dist.lease.append", nullptr, "dist.lease.append_failed", true};

}  // namespace

const char* to_string(LeaseEvent event) {
  switch (event) {
    case LeaseEvent::kGranted: return "granted";
    case LeaseEvent::kRevoked: return "revoked";
    case LeaseEvent::kDone: return "done";
    case LeaseEvent::kMerged: return "merged";
  }
  return "unknown";
}

bool parse_lease_event(const std::string& text, LeaseEvent* out) {
  for (const LeaseEvent e : {LeaseEvent::kGranted, LeaseEvent::kRevoked,
                             LeaseEvent::kDone, LeaseEvent::kMerged}) {
    if (text == to_string(e)) {
      *out = e;
      return true;
    }
  }
  return false;
}

LeaseChains lease_chains(const std::vector<LeaseRecord>& records) {
  LeaseChains chains;
  std::size_t num_shards = 0;
  for (const LeaseRecord& rec : records) {
    if (rec.event != LeaseEvent::kMerged) {
      num_shards = std::max(num_shards,
                            static_cast<std::size_t>(rec.shard) + 1);
    }
  }
  chains.shards.resize(num_shards);
  for (const LeaseRecord& rec : records) {
    if (rec.wall_ns != 0) {
      chains.last_wall_ns = std::max(chains.last_wall_ns, rec.wall_ns);
      if (chains.first_wall_ns == 0 || rec.wall_ns < chains.first_wall_ns) {
        chains.first_wall_ns = rec.wall_ns;
      }
    }
    switch (rec.event) {
      case LeaseEvent::kGranted: {
        LeaseInterval iv;
        iv.epoch = rec.epoch;
        iv.pid = rec.pid;
        iv.begin_wall_ns = rec.wall_ns;
        chains.shards[rec.shard].push_back(std::move(iv));
        break;
      }
      case LeaseEvent::kRevoked:
      case LeaseEvent::kDone: {
        auto& ivs = chains.shards[rec.shard];
        for (auto it = ivs.rbegin(); it != ivs.rend(); ++it) {
          if (it->epoch == rec.epoch && !it->closed) {
            it->closed = true;
            it->revoked = rec.event == LeaseEvent::kRevoked;
            it->end_wall_ns = rec.wall_ns;
            it->detail = rec.detail;
            break;
          }
        }
        break;
      }
      case LeaseEvent::kMerged:
        chains.merged = true;
        chains.merged_wall_ns = rec.wall_ns;
        break;
    }
  }
  for (std::vector<LeaseInterval>& ivs : chains.shards) {
    for (LeaseInterval& iv : ivs) {
      if (!iv.closed) iv.end_wall_ns = chains.last_wall_ns;
    }
  }
  return chains;
}

std::vector<ShardLease> LeaseReplay::lease_states(
    std::size_t num_shards) const {
  std::vector<ShardLease> states(num_shards);
  for (const LeaseRecord& r : records) {
    if (r.shard >= num_shards || r.event == LeaseEvent::kMerged) continue;
    ShardLease& s = states[r.shard];
    switch (r.event) {
      case LeaseEvent::kGranted:
        s.state = ShardState::kLeased;
        s.epoch = std::max(s.epoch, r.epoch);
        s.pid = r.pid;
        break;
      case LeaseEvent::kRevoked:
        if (s.state == ShardState::kLeased) {
          s.state = ShardState::kUnassigned;
        }
        break;
      case LeaseEvent::kDone:
        s.state = ShardState::kDone;
        break;
      case LeaseEvent::kMerged:
        break;
    }
  }
  return states;
}

std::string lease_payload(const LeaseRecord& r) {
  return "seq=" + std::to_string(r.seq) +
         " shard=" + std::to_string(r.shard) +
         " epoch=" + std::to_string(r.epoch) + " event=" + to_string(r.event) +
         " pid=" + std::to_string(r.pid) +
         " wall=" + std::to_string(r.wall_ns) + " detail=" + r.detail;
}

bool parse_lease_payload(std::string_view payload, LeaseRecord* out) {
  record_log::Fields in(payload);
  std::string_view event;
  return in.u64("seq", &out->seq) && in.u64("shard", &out->shard) &&
         in.u64("epoch", &out->epoch) && in.text("event", &event) &&
         parse_lease_event(std::string(event), &out->event) &&
         in.u64("pid", &out->pid) && in.optional_u64("wall", &out->wall_ns) &&
         in.tail("detail", &out->detail);
}

Outcome<LeaseReplay> read_lease_journal(const std::string& path) {
  LeaseReplay replay;
  std::vector<std::size_t> lines;  // of replay.records
  const Outcome<record_log::Scan> scan = record_log::replay(
      path, kFormat,
      [&](char, std::string_view payload, std::size_t line,
          std::string* why) {
        LeaseRecord record;
        if (!parse_lease_payload(payload, &record)) return false;
        if (record.seq < replay.next_seq) {
          *why = "sequence regression at line " + std::to_string(line) +
                 " (seq " + std::to_string(record.seq) + " after " +
                 std::to_string(replay.next_seq) + ")";
          return false;
        }
        replay.next_seq = record.seq + 1;
        if (record.event == LeaseEvent::kMerged) replay.merged = true;
        replay.records.push_back(std::move(record));
        lines.push_back(line);
        return true;
      });
  if (!scan.ok()) return Outcome<LeaseReplay>::malformed(scan.message());
  // A run has at most one shard per buyer (shard_ranges), so a larger
  // index is damage; refusing it here keeps every per-shard table sized
  // by the run, not by a record.
  const std::uint64_t buyers = scan.value().header.num_buyers;
  for (std::size_t i = 0; i < replay.records.size(); ++i) {
    if (replay.records[i].shard >= buyers) {
      return Outcome<LeaseReplay>::malformed(
          path + ": shard " + std::to_string(replay.records[i].shard) +
          " out of range at line " + std::to_string(lines[i]) + " (run of " +
          std::to_string(buyers) + " buyers)");
    }
  }
  replay.has_header = scan.value().has_header;
  replay.header = scan.value().header;
  replay.torn_tail = scan.value().torn_tail;
  replay.valid_bytes = scan.value().valid_bytes;
  return Outcome<LeaseReplay>::success(std::move(replay));
}

// ---------------------------------------------------------------- writer

LeaseJournal::LeaseJournal() : writer_(kFormat) {}
LeaseJournal::~LeaseJournal() = default;
LeaseJournal::LeaseJournal(LeaseJournal&&) noexcept = default;
LeaseJournal& LeaseJournal::operator=(LeaseJournal&&) noexcept = default;

bool LeaseJournal::is_open() const { return writer_.is_open(); }
const std::string& LeaseJournal::path() const { return writer_.path(); }

Outcome<LeaseJournal> LeaseJournal::create(const std::string& path,
                                           const JournalHeader& header) {
  Outcome<record_log::Writer> created =
      record_log::Writer::create(path, kFormat, &header);
  if (!created.ok()) return Outcome<LeaseJournal>::malformed(created.message());
  LeaseJournal lj;
  lj.writer_ = std::move(created).value();
  return Outcome<LeaseJournal>::success(std::move(lj));
}

Outcome<LeaseJournal> LeaseJournal::append_to(const std::string& path,
                                              const LeaseReplay& replay) {
  Outcome<record_log::Writer> opened = record_log::Writer::reopen(
      path, kFormat, replay.valid_bytes, replay.next_seq);
  if (!opened.ok()) return Outcome<LeaseJournal>::malformed(opened.message());
  LeaseJournal lj;
  lj.writer_ = std::move(opened).value();
  return Outcome<LeaseJournal>::success(std::move(lj));
}

bool LeaseJournal::append(std::uint64_t shard, std::uint64_t epoch,
                          LeaseEvent event, std::uint64_t pid,
                          const std::string& detail, std::string* error) {
  return writer_.append(
      kLeaseSite,
      [&](std::uint64_t seq) {
        LeaseRecord record;
        record.seq = seq;
        record.shard = shard;
        record.epoch = epoch;
        record.event = event;
        record.pid = pid;
        record.wall_ns = clocks::anchored_wall_now_ns();
        record.detail = detail;
        return record_log::format_line('L', lease_payload(record));
      },
      error);
}

}  // namespace odcfp::dist
