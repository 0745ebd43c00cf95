#include "common/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>
#include <mutex>
#include <sstream>

#include "common/atomic_io.hpp"
#include "common/clock.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"

namespace odcfp {

namespace {

constexpr const char* kMagicLine = "odcfp-journal 1";

std::string errno_message(const char* step, const std::string& path) {
  std::string msg = step;
  msg += " '" + path + "': ";
  msg += std::strerror(errno);
  return msg;
}

std::string parent_dir(const std::string& path) {
  const std::size_t pos = path.find_last_of('/');
  if (pos == std::string::npos) return ".";
  if (pos == 0) return "/";
  return path.substr(0, pos);
}

void hex8(std::uint32_t value, std::string* out) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", value);
  *out += buf;
}

// ---- payload parsing helpers (strict field order, see header doc) ----

bool consume(std::string_view* s, std::string_view prefix) {
  if (s->substr(0, prefix.size()) != prefix) return false;
  s->remove_prefix(prefix.size());
  return true;
}

bool parse_u64_field(std::string_view* s, std::uint64_t* out) {
  std::size_t i = 0;
  std::uint64_t v = 0;
  while (i < s->size() && (*s)[i] >= '0' && (*s)[i] <= '9') {
    v = v * 10 + static_cast<std::uint64_t>((*s)[i] - '0');
    ++i;
  }
  if (i == 0) return false;
  *out = v;
  s->remove_prefix(i);
  return consume(s, " ") || s->empty();
}

bool parse_hex32_field(std::string_view* s, std::uint32_t* out) {
  if (s->size() < 8) return false;
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const char c = (*s)[i];
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint32_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = v;
  s->remove_prefix(8);
  return consume(s, " ") || s->empty();
}

std::string entry_payload(const JournalEntry& e) {
  std::ostringstream os;
  os << "seq=" << e.seq << " buyer=" << e.buyer
     << " phase=" << to_string(e.phase) << " crc=";
  std::string crc;
  hex8(e.artifact_crc, &crc);
  os << crc << " wall=" << e.wall_ns << " artifact=" << e.artifact;
  return os.str();
}

bool parse_entry_payload(std::string_view payload, JournalEntry* out) {
  if (!consume(&payload, "seq=") ||
      !parse_u64_field(&payload, &out->seq)) {
    return false;
  }
  if (!consume(&payload, "buyer=") ||
      !parse_u64_field(&payload, &out->buyer)) {
    return false;
  }
  if (!consume(&payload, "phase=")) return false;
  const std::size_t sp = payload.find(' ');
  if (sp == std::string_view::npos) return false;
  if (!parse_buyer_phase(std::string(payload.substr(0, sp)), &out->phase)) {
    return false;
  }
  payload.remove_prefix(sp + 1);
  if (!consume(&payload, "crc=") ||
      !parse_hex32_field(&payload, &out->artifact_crc)) {
    return false;
  }
  // wall= is a later wire addition: optional on parse so journals (and
  // handcrafted fixtures) written without it still replay, wall_ns == 0.
  if (consume(&payload, "wall=") &&
      !parse_u64_field(&payload, &out->wall_ns)) {
    return false;
  }
  if (!consume(&payload, "artifact=")) return false;
  out->artifact = std::string(payload);
  return true;
}

std::string heartbeat_payload(std::uint64_t pid, std::uint64_t beat,
                              std::uint64_t wall_ns) {
  std::ostringstream os;
  os << "pid=" << pid << " beat=" << beat << " wall=" << wall_ns;
  return os.str();
}

bool parse_heartbeat_payload(std::string_view payload, std::uint64_t* pid,
                             std::uint64_t* beat, std::uint64_t* wall_ns) {
  if (!consume(&payload, "pid=") || !parse_u64_field(&payload, pid) ||
      !consume(&payload, "beat=") || !parse_u64_field(&payload, beat)) {
    return false;
  }
  *wall_ns = 0;  // optional trailing field (pre-wall journals)
  if (consume(&payload, "wall=") &&
      !parse_u64_field(&payload, wall_ns)) {
    return false;
  }
  return payload.empty();
}

}  // namespace

namespace journal_wire {

std::string header_payload(const JournalHeader& h) {
  std::ostringstream os;
  os << "seed=" << h.seed << " buyers=" << h.num_buyers << " config=";
  std::string cfg;
  hex8(h.config_crc, &cfg);
  os << cfg << " label=" << h.label;
  return os.str();
}

bool parse_header_payload(std::string_view payload, JournalHeader* out) {
  if (!consume(&payload, "seed=") ||
      !parse_u64_field(&payload, &out->seed)) {
    return false;
  }
  if (!consume(&payload, "buyers=") ||
      !parse_u64_field(&payload, &out->num_buyers)) {
    return false;
  }
  if (!consume(&payload, "config=") ||
      !parse_hex32_field(&payload, &out->config_crc)) {
    return false;
  }
  if (!consume(&payload, "label=")) return false;
  out->label = std::string(payload);
  return true;
}

/// "H <crc8> <payload>" -> payload, with the checksum verified.
bool checked_payload(std::string_view line, char tag,
                     std::string_view* payload) {
  if (line.size() < 11 || line[0] != tag || line[1] != ' ' ||
      line[10] != ' ') {
    return false;
  }
  std::uint32_t recorded = 0;
  std::string_view crc_text = line.substr(2, 8);
  if (!parse_hex32_field(&crc_text, &recorded)) return false;
  *payload = line.substr(11);
  return atomic_io::crc32(*payload) == recorded;
}

std::string format_line(char tag, const std::string& payload) {
  std::string line(1, tag);
  line += ' ';
  hex8(atomic_io::crc32(payload), &line);
  line += ' ';
  line += payload;
  line += '\n';
  return line;
}

}  // namespace journal_wire

namespace {

using journal_wire::checked_payload;
using journal_wire::format_line;
using journal_wire::header_payload;
using journal_wire::parse_header_payload;

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
  std::string bytes;
  if (!atomic_io::read_file(path, &bytes)) {
    return Outcome<JournalReplay>::malformed("cannot open journal '" +
                                             path + "'");
  }
  if (bytes.empty()) {
    // create() renames the journal into place only once magic + header
    // are durable under a temp name, so no crash leaves a zero-byte
    // journal behind: an empty file means external truncation (or an
    // unrelated file at the journal's path), and treating it as a fresh
    // run would silently discard whatever the journal once recorded.
    return Outcome<JournalReplay>::malformed(
        "journal '" + path +
        "' exists but is empty — refusing to treat it as a fresh run "
        "(externally truncated?); delete the file to start over");
  }
  JournalReplay replay;
  std::size_t pos = 0;
  std::size_t line_index = 0;
  while (pos < bytes.size()) {
    const std::size_t nl = bytes.find('\n', pos);
    if (nl == std::string::npos) {
      // Trailing bytes without a newline: a record torn by a crash
      // mid-write. Tolerated only because nothing can follow it.
      replay.torn_tail = true;
      break;
    }
    const std::string_view line(bytes.data() + pos, nl - pos);
    const bool is_final = nl + 1 >= bytes.size();
    if (line_index == 0) {
      if (line != kMagicLine) {
        if (is_final) {
          replay.torn_tail = true;
          break;
        }
        return Outcome<JournalReplay>::malformed(
            path + ": not an odcfp journal (bad magic line)");
      }
    } else if (line_index == 1) {
      std::string_view payload;
      if (!checked_payload(line, 'H', &payload) ||
          !parse_header_payload(payload, &replay.header)) {
        if (is_final) {
          // Crash before the header became durable: the run never did
          // any work; the caller starts over.
          replay.torn_tail = true;
          break;
        }
        return Outcome<JournalReplay>::malformed(
            path + ": corrupt header record");
      }
      replay.has_header = true;
    } else if (!line.empty() && line[0] == 'B') {
      // Liveness heartbeat: CRC-checked like any record, but carries no
      // sequence number and never enters `entries` — phase state and
      // resume decisions are blind to it.
      std::string_view payload;
      std::uint64_t pid = 0, beat = 0, hb_wall = 0;
      if (!checked_payload(line, 'B', &payload) ||
          !parse_heartbeat_payload(payload, &pid, &beat, &hb_wall)) {
        if (is_final) {
          replay.torn_tail = true;
          break;
        }
        std::ostringstream os;
        os << path << ": corrupt heartbeat at line " << (line_index + 1);
        return Outcome<JournalReplay>::malformed(os.str());
      }
      ++replay.heartbeats;
      replay.last_heartbeat = beat;
      replay.heartbeat_walls.push_back(hb_wall);
    } else {
      JournalEntry entry;
      std::string_view payload;
      if (!checked_payload(line, 'R', &payload) ||
          !parse_entry_payload(payload, &entry)) {
        if (is_final) {
          replay.torn_tail = true;
          break;
        }
        std::ostringstream os;
        os << path << ": corrupt record at line " << (line_index + 1);
        return Outcome<JournalReplay>::malformed(os.str());
      }
      if (entry.seq < replay.next_seq) {
        // Sequence regression cannot come from a torn append; the file
        // was edited or records were lost.
        std::ostringstream os;
        os << path << ": sequence regression at line " << (line_index + 1)
           << " (seq " << entry.seq << " after " << replay.next_seq << ")";
        return Outcome<JournalReplay>::malformed(os.str());
      }
      replay.next_seq = entry.seq + 1;
      replay.entries.push_back(std::move(entry));
    }
    pos = nl + 1;
    replay.valid_bytes = pos;
    ++line_index;
  }
  return Outcome<JournalReplay>::success(std::move(replay));
}

// ---------------------------------------------------------------- writer

struct Journal::Impl {
  std::string path;
  int fd = -1;
  std::uint64_t next_seq = 0;
  std::mutex mu;

  ~Impl() {
    if (fd >= 0) ::close(fd);
  }
};

Journal::Journal() : impl_(std::make_unique<Impl>()) {}
Journal::~Journal() = default;
Journal::Journal(Journal&&) noexcept = default;
Journal& Journal::operator=(Journal&&) noexcept = default;

bool Journal::is_open() const { return impl_ != nullptr && impl_->fd >= 0; }
const std::string& Journal::path() const { return impl_->path; }

void Journal::close() {
  if (impl_ != nullptr && impl_->fd >= 0) {
    ::close(impl_->fd);
    impl_->fd = -1;
  }
}

Outcome<Journal> Journal::create(const std::string& path,
                                 const JournalHeader& header) {
  Journal journal;
  journal.impl_->path = path;
  try {
    ODCFP_FAULT_POINT("journal.create");
    if (!atomic_io::make_dirs(parent_dir(path))) {
      return Outcome<Journal>::malformed(
          errno_message("mkdir for journal", path));
    }
    std::string prologue = kMagicLine;
    prologue += '\n';
    prologue += format_line('H', header_payload(header));
    std::string error;
    const int fd = atomic_io::create_with_prologue(path, prologue, &error);
    if (fd < 0) return Outcome<Journal>::malformed(error);
    journal.impl_->fd = fd;
  } catch (const std::exception& e) {
    return Outcome<Journal>::malformed(
        "injected fault creating journal '" + path + "': " + e.what());
  }
  log::info("journal.created")
      .field("path", path)
      .field("seed", header.seed)
      .field("buyers", header.num_buyers)
      .field("label", header.label);
  return Outcome<Journal>::success(std::move(journal));
}

Outcome<Journal> Journal::append_to(const std::string& path,
                                    const JournalReplay& replay) {
  Journal journal;
  journal.impl_->path = path;
  journal.impl_->next_seq = replay.next_seq;
  const int fd =
      // O_RDWR, not O_WRONLY: the prologue re-validation below preads
      // the header bytes back through this same descriptor.
      ::open(path.c_str(), O_RDWR | O_APPEND | O_CLOEXEC);
  if (fd < 0) {
    return Outcome<Journal>::malformed(errno_message("open", path));
  }
  journal.impl_->fd = fd;
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return Outcome<Journal>::malformed(errno_message("fstat", path));
  }
  if (static_cast<std::uint64_t>(st.st_size) != replay.valid_bytes) {
    // Drop the torn tail before appending: O_APPEND writes land at EOF,
    // and EOF must be the end of the last intact record.
    if (::ftruncate(fd, static_cast<off_t>(replay.valid_bytes)) != 0 ||
        ::fsync(fd) != 0) {
      return Outcome<Journal>::malformed(
          errno_message("truncate torn tail", path));
    }
    log::warn("journal.torn_tail_dropped")
        .field("path", path)
        .field("bytes_dropped",
               static_cast<std::int64_t>(st.st_size) -
                   static_cast<std::int64_t>(replay.valid_bytes));
  }
  // Re-validate the prologue against the bytes actually on disk before
  // any append lands: `replay` may have been computed from a file that
  // was since tampered with or swapped (another process owns the same
  // path), and O_APPEND would happily extend a journal whose header no
  // longer checks out.
  // The first two lines are all that needs re-reading; 1 MiB bounds the
  // work on journals with very long labels.
  std::string prologue(
      static_cast<std::size_t>(
          std::min<std::uint64_t>(replay.valid_bytes, 1u << 20)),
      '\0');
  std::size_t got = 0;
  while (got < prologue.size()) {
    const ssize_t n = ::pread(fd, prologue.data() + got,
                              prologue.size() - got,
                              static_cast<off_t>(got));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Outcome<Journal>::malformed(
          errno_message("re-read for header validation", path));
    }
    got += static_cast<std::size_t>(n);
  }
  const std::size_t magic_nl = prologue.find('\n');
  if (magic_nl == std::string::npos ||
      std::string_view(prologue.data(), magic_nl) != kMagicLine) {
    return Outcome<Journal>::malformed(
        path + ": magic line no longer valid on disk; refusing to append");
  }
  if (replay.has_header) {
    const std::size_t header_nl = prologue.find('\n', magic_nl + 1);
    std::string_view header_line(prologue.data() + magic_nl + 1,
                                 (header_nl == std::string::npos
                                      ? prologue.size()
                                      : header_nl) -
                                     (magic_nl + 1));
    std::string_view payload;
    JournalHeader on_disk;
    if (header_nl == std::string::npos ||
        !checked_payload(header_line, 'H', &payload) ||
        !parse_header_payload(payload, &on_disk)) {
      return Outcome<Journal>::malformed(
          path +
          ": header CRC re-validation failed after torn-tail sweep; "
          "refusing to append");
    }
  }
  return Outcome<Journal>::success(std::move(journal));
}

bool Journal::append(std::uint64_t buyer, BuyerPhase phase,
                     const std::string& artifact,
                     std::uint32_t artifact_crc, std::string* error) {
  std::string diag;
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (impl_->fd < 0) {
    diag = "journal '" + impl_->path + "' is not open";
  } else {
    JournalEntry entry;
    entry.seq = impl_->next_seq;
    entry.buyer = buyer;
    entry.phase = phase;
    entry.artifact = artifact;
    entry.artifact_crc = artifact_crc;
    entry.wall_ns = clocks::anchored_wall_now_ns();
    const std::string line = format_line('R', entry_payload(entry));
    try {
      struct stat st;
      if (::fstat(impl_->fd, &st) != 0) {
        diag = errno_message("fstat", impl_->path);
      } else {
        std::size_t off = 0;
        try {
          ODCFP_FAULT_POINT("journal.append");
        } catch (const fault::InjectedDiskFull& e) {
          // Simulated ENOSPC: land the accepted prefix for real so the
          // file carries a genuinely torn record, then take the rollback
          // path below — the journal must shrink back to the last intact
          // record, never expose a mid-file partial line.
          const std::size_t short_n = std::min(e.short_bytes, line.size());
          if (short_n > 0) {
            (void)::write(impl_->fd, line.data(), short_n);
            off = short_n;
          }
          diag = std::string("short write (disk full) on '") +
                 impl_->path + "': " + e.what();
        }
        while (diag.empty() && off < line.size()) {
          const ssize_t n =
              ::write(impl_->fd, line.data() + off, line.size() - off);
          if (n < 0) {
            if (errno == EINTR) continue;
            diag = errno_message("append", impl_->path);
            break;
          }
          off += static_cast<std::size_t>(n);
        }
        if (!diag.empty() && off > 0) {
          // A partial line mid-file would read as corruption (only the
          // FINAL record may be torn), so roll the file back to the
          // pre-append size. If even that fails the journal is unusable.
          if (::ftruncate(impl_->fd, st.st_size) != 0) {
            ::close(impl_->fd);
            impl_->fd = -1;
            diag += "; rollback failed, journal closed";
          }
        }
        if (diag.empty()) {
          // The line is fully written: consume the sequence number even
          // if fsync fails below, so a retried append never duplicates
          // a seq (replay requires them strictly increasing).
          impl_->next_seq = entry.seq + 1;
          ODCFP_FAULT_POINT("journal.fsync");
          if (::fsync(impl_->fd) != 0) {
            diag = errno_message("fsync", impl_->path);
          }
        }
      }
    } catch (const std::exception& e) {
      diag = std::string("injected fault appending to '") + impl_->path +
             "': " + e.what();
    }
  }
  if (diag.empty()) return true;
  log::warn("journal.append_failed").field("error", diag);
  if (error != nullptr) *error = diag;
  return false;
}

bool Journal::heartbeat(std::uint64_t beat, std::string* error) {
  std::string diag;
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (impl_->fd < 0) {
    diag = "journal '" + impl_->path + "' is not open";
  } else {
    const std::string line = format_line(
        'B', heartbeat_payload(static_cast<std::uint64_t>(::getpid()),
                               beat, clocks::anchored_wall_now_ns()));
    struct stat st;
    if (::fstat(impl_->fd, &st) != 0) {
      diag = errno_message("fstat", impl_->path);
    } else {
      std::size_t off = 0;
      while (off < line.size()) {
        const ssize_t n =
            ::write(impl_->fd, line.data() + off, line.size() - off);
        if (n < 0) {
          if (errno == EINTR) continue;
          diag = errno_message("heartbeat append", impl_->path);
          break;
        }
        off += static_cast<std::size_t>(n);
      }
      if (!diag.empty() && off > 0) {
        // Same discipline as append(): a partial line followed by a
        // later successful append would replay as MID-file corruption,
        // so roll the file back to the pre-heartbeat size.
        if (::ftruncate(impl_->fd, st.st_size) != 0) {
          ::close(impl_->fd);
          impl_->fd = -1;
          diag += "; rollback failed, journal closed";
        }
      }
      // fsync makes the liveness signal visible to a supervisor
      // stat'ing the file; a failed fsync leaves at worst a torn tail.
      if (diag.empty() && ::fsync(impl_->fd) != 0) {
        diag = errno_message("heartbeat fsync", impl_->path);
      }
    }
  }
  if (diag.empty()) return true;
  if (error != nullptr) *error = diag;
  return false;
}

}  // namespace odcfp
