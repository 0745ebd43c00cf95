#include "dist/lease.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <sstream>

#include "common/atomic_io.hpp"
#include "common/clock.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"

namespace odcfp::dist {

namespace {

constexpr std::string_view kMagicLine = "odcfp-leases 1";

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

bool consume(std::string_view* s, const char* prefix) {
  const std::size_t len = std::strlen(prefix);
  if (s->size() < len || s->compare(0, len, prefix) != 0) return false;
  s->remove_prefix(len);
  return true;
}

bool parse_u64(std::string_view* s, std::uint64_t* out) {
  std::uint64_t v = 0;
  std::size_t digits = 0;
  while (!s->empty() && (*s)[0] >= '0' && (*s)[0] <= '9') {
    v = v * 10 + static_cast<std::uint64_t>((*s)[0] - '0');
    s->remove_prefix(1);
    ++digits;
  }
  if (digits == 0) return false;
  if (!s->empty() && (*s)[0] == ' ') s->remove_prefix(1);
  *out = v;
  return true;
}

std::string lease_payload(const LeaseRecord& r) {
  std::ostringstream os;
  os << "seq=" << r.seq << " shard=" << r.shard << " epoch=" << r.epoch
     << " event=" << to_string(r.event) << " pid=" << r.pid
     << " wall=" << r.wall_ns << " detail=" << r.detail;
  return os.str();
}

bool parse_lease_payload(std::string_view payload, LeaseRecord* out) {
  if (!consume(&payload, "seq=") || !parse_u64(&payload, &out->seq)) {
    return false;
  }
  if (!consume(&payload, "shard=") || !parse_u64(&payload, &out->shard)) {
    return false;
  }
  if (!consume(&payload, "epoch=") || !parse_u64(&payload, &out->epoch)) {
    return false;
  }
  if (!consume(&payload, "event=")) return false;
  const std::size_t sp = payload.find(' ');
  if (sp == std::string_view::npos) return false;
  if (!parse_lease_event(std::string(payload.substr(0, sp)),
                         &out->event)) {
    return false;
  }
  payload.remove_prefix(sp + 1);
  if (!consume(&payload, "pid=") || !parse_u64(&payload, &out->pid)) {
    return false;
  }
  // Optional (later wire addition): journals without it replay wall_ns=0.
  if (consume(&payload, "wall=") && !parse_u64(&payload, &out->wall_ns)) {
    return false;
  }
  if (!consume(&payload, "detail=")) return false;
  out->detail = std::string(payload);
  return true;
}

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

Outcome<LeaseReplay> read_lease_journal(const std::string& path) {
  std::string bytes;
  if (!atomic_io::read_file(path, &bytes)) {
    return Outcome<LeaseReplay>::malformed("cannot open lease journal '" +
                                           path + "'");
  }
  if (bytes.empty()) {
    return Outcome<LeaseReplay>::malformed(
        "lease journal '" + path +
        "' exists but is empty — refusing to treat it as a fresh run "
        "(externally truncated?); delete the file to start over");
  }
  LeaseReplay replay;
  std::size_t pos = 0;
  std::size_t line_index = 0;
  while (pos < bytes.size()) {
    const std::size_t nl = bytes.find('\n', pos);
    if (nl == std::string::npos) {
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
        return Outcome<LeaseReplay>::malformed(
            path + ": not an odcfp lease journal (bad magic line)");
      }
    } else if (line_index == 1) {
      std::string_view payload;
      if (!journal_wire::checked_payload(line, 'H', &payload) ||
          !journal_wire::parse_header_payload(payload, &replay.header)) {
        if (is_final) {
          replay.torn_tail = true;
          break;
        }
        return Outcome<LeaseReplay>::malformed(
            path + ": corrupt header record");
      }
      replay.has_header = true;
    } else {
      LeaseRecord record;
      std::string_view payload;
      if (!journal_wire::checked_payload(line, 'L', &payload) ||
          !parse_lease_payload(payload, &record)) {
        if (is_final) {
          replay.torn_tail = true;
          break;
        }
        std::ostringstream os;
        os << path << ": corrupt lease record at line " << (line_index + 1);
        return Outcome<LeaseReplay>::malformed(os.str());
      }
      if (record.seq < replay.next_seq) {
        std::ostringstream os;
        os << path << ": sequence regression at line " << (line_index + 1)
           << " (seq " << record.seq << " after " << replay.next_seq
           << ")";
        return Outcome<LeaseReplay>::malformed(os.str());
      }
      replay.next_seq = record.seq + 1;
      if (record.event == LeaseEvent::kMerged) replay.merged = true;
      replay.records.push_back(std::move(record));
    }
    pos = nl + 1;
    replay.valid_bytes = pos;
    ++line_index;
  }
  return Outcome<LeaseReplay>::success(std::move(replay));
}

// ---------------------------------------------------------------- writer

struct LeaseJournal::Impl {
  std::string path;
  int fd = -1;
  std::uint64_t next_seq = 0;
  std::mutex mu;

  ~Impl() {
    if (fd >= 0) ::close(fd);
  }
};

LeaseJournal::LeaseJournal() : impl_(std::make_unique<Impl>()) {}
LeaseJournal::~LeaseJournal() = default;
LeaseJournal::LeaseJournal(LeaseJournal&&) noexcept = default;
LeaseJournal& LeaseJournal::operator=(LeaseJournal&&) noexcept = default;

bool LeaseJournal::is_open() const {
  return impl_ != nullptr && impl_->fd >= 0;
}
const std::string& LeaseJournal::path() const { return impl_->path; }

Outcome<LeaseJournal> LeaseJournal::create(const std::string& path,
                                           const JournalHeader& header) {
  LeaseJournal lj;
  lj.impl_->path = path;
  if (!atomic_io::make_dirs(parent_dir(path))) {
    return Outcome<LeaseJournal>::malformed(
        errno_message("mkdir for lease journal", path));
  }
  std::string prologue(kMagicLine);
  prologue += '\n';
  prologue +=
      journal_wire::format_line('H', journal_wire::header_payload(header));
  std::string error;
  const int fd = atomic_io::create_with_prologue(path, prologue, &error);
  if (fd < 0) return Outcome<LeaseJournal>::malformed(error);
  lj.impl_->fd = fd;
  return Outcome<LeaseJournal>::success(std::move(lj));
}

Outcome<LeaseJournal> LeaseJournal::append_to(const std::string& path,
                                              const LeaseReplay& replay) {
  LeaseJournal lj;
  lj.impl_->path = path;
  lj.impl_->next_seq = replay.next_seq;
  // O_RDWR for the prologue re-validation pread below.
  const int fd = ::open(path.c_str(), O_RDWR | O_APPEND | O_CLOEXEC);
  if (fd < 0) {
    return Outcome<LeaseJournal>::malformed(errno_message("open", path));
  }
  lj.impl_->fd = fd;
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return Outcome<LeaseJournal>::malformed(errno_message("fstat", path));
  }
  if (static_cast<std::uint64_t>(st.st_size) != replay.valid_bytes) {
    if (::ftruncate(fd, static_cast<off_t>(replay.valid_bytes)) != 0 ||
        ::fsync(fd) != 0) {
      return Outcome<LeaseJournal>::malformed(
          errno_message("truncate torn tail", path));
    }
  }
  // Same tamper guard as Journal::append_to: re-check the prologue bytes
  // on disk before extending the file.
  std::string prologue(
      static_cast<std::size_t>(
          std::min<std::uint64_t>(replay.valid_bytes, 1u << 20)),
      '\0');
  std::size_t got = 0;
  while (got < prologue.size()) {
    const ssize_t n =
        ::pread(fd, prologue.data() + got, prologue.size() - got,
                static_cast<off_t>(got));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Outcome<LeaseJournal>::malformed(
          errno_message("re-read for header validation", path));
    }
    got += static_cast<std::size_t>(n);
  }
  const std::size_t magic_nl = prologue.find('\n');
  if (magic_nl == std::string::npos ||
      std::string_view(prologue.data(), magic_nl) != kMagicLine) {
    return Outcome<LeaseJournal>::malformed(
        path + ": magic line no longer valid on disk; refusing to append");
  }
  if (replay.has_header) {
    const std::size_t header_nl = prologue.find('\n', magic_nl + 1);
    std::string_view header_line(
        prologue.data() + magic_nl + 1,
        (header_nl == std::string::npos ? prologue.size() : header_nl) -
            (magic_nl + 1));
    std::string_view payload;
    JournalHeader on_disk;
    if (header_nl == std::string::npos ||
        !journal_wire::checked_payload(header_line, 'H', &payload) ||
        !journal_wire::parse_header_payload(payload, &on_disk)) {
      return Outcome<LeaseJournal>::malformed(
          path +
          ": header CRC re-validation failed after torn-tail sweep; "
          "refusing to append");
    }
  }
  return Outcome<LeaseJournal>::success(std::move(lj));
}

bool LeaseJournal::append(std::uint64_t shard, std::uint64_t epoch,
                          LeaseEvent event, std::uint64_t pid,
                          const std::string& detail, std::string* error) {
  std::string diag;
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (impl_->fd < 0) {
    diag = "lease journal '" + impl_->path + "' is not open";
  } else {
    LeaseRecord record;
    record.seq = impl_->next_seq;
    record.shard = shard;
    record.epoch = epoch;
    record.event = event;
    record.pid = pid;
    record.wall_ns = clocks::anchored_wall_now_ns();
    record.detail = detail;
    const std::string line =
        journal_wire::format_line('L', lease_payload(record));
    try {
      ODCFP_FAULT_POINT("dist.lease.append");
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
            diag = errno_message("append", impl_->path);
            break;
          }
          off += static_cast<std::size_t>(n);
        }
        if (!diag.empty() && off > 0) {
          if (::ftruncate(impl_->fd, st.st_size) != 0) {
            ::close(impl_->fd);
            impl_->fd = -1;
            diag += "; rollback failed, lease journal closed";
          }
        }
        if (diag.empty()) {
          impl_->next_seq = record.seq + 1;
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
  log::warn("dist.lease.append_failed").field("error", diag);
  if (error != nullptr) *error = diag;
  return false;
}

}  // namespace odcfp::dist
