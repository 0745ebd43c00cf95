#include "service/request_log.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <sstream>

#include "common/atomic_io.hpp"
#include "common/fault.hpp"
#include "common/journal.hpp"
#include "common/log.hpp"
#include "service/wire.hpp"

namespace odcfp::service {

namespace {

constexpr const char* kMagicLine = "odcfp-requests 1";

std::string errno_message(const char* step, const std::string& path) {
  std::string msg = step;
  msg += " '" + path + "': ";
  msg += std::strerror(errno);
  return msg;
}

std::string admitted_payload(const AdmittedRecord& r) {
  std::ostringstream os;
  os << "id=" << r.id << " tenant=" << r.spec.tenant
     << " circuit=" << r.spec.circuit << " buyers=" << r.spec.buyers
     << " seed=" << r.spec.seed << " deadline=" << r.spec.deadline_ms
     << " priority=" << r.priority << " verify=" << (r.spec.verify ? 1 : 0)
     << " wall=" << r.wall_ns << " label=" << r.spec.label;
  return os.str();
}

bool parse_admitted_payload(std::string_view payload, AdmittedRecord* out) {
  std::uint64_t verify = 0;
  std::uint64_t priority = 0;
  if (!wire::get_u64(payload, "id", &out->id) ||
      !wire::get_u64(payload, "buyers", &out->spec.buyers) ||
      !wire::get_u64(payload, "seed", &out->spec.seed) ||
      !wire::get_u64(payload, "deadline", &out->spec.deadline_ms) ||
      !wire::get_u64(payload, "priority", &priority) ||
      !wire::get_u64(payload, "verify", &verify) ||
      !wire::get_u64(payload, "wall", &out->wall_ns)) {
    return false;
  }
  out->spec.tenant = wire::get_field(payload, "tenant");
  out->spec.circuit = wire::get_field(payload, "circuit");
  out->spec.verify = verify != 0;
  out->priority = static_cast<int>(priority);
  out->spec.label = wire::get_tail_field(payload, "label");
  return !out->spec.tenant.empty() && !out->spec.circuit.empty();
}

std::string terminal_payload(const TerminalRecord& r) {
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", r.artifact_crc);
  std::ostringstream os;
  os << "id=" << r.id << " committed=" << r.committed << " crc=" << crc
     << " outcome=" << r.outcome << " detail=" << r.detail;
  return os.str();
}

bool parse_terminal_payload(std::string_view payload, TerminalRecord* out) {
  if (!wire::get_u64(payload, "id", &out->id) ||
      !wire::get_u64(payload, "committed", &out->committed)) {
    return false;
  }
  const std::string crc_text = wire::get_field(payload, "crc");
  if (crc_text.size() != 8) return false;
  std::uint32_t crc = 0;
  for (const char c : crc_text) {
    crc <<= 4;
    if (c >= '0' && c <= '9') crc |= static_cast<std::uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      crc |= static_cast<std::uint32_t>(c - 'a' + 10);
    else
      return false;
  }
  out->artifact_crc = crc;
  out->outcome = wire::get_field(payload, "outcome");
  out->detail = wire::get_tail_field(payload, "detail");
  return !out->outcome.empty();
}

}  // namespace

std::vector<AdmittedRecord> RequestLogReplay::pending() const {
  std::vector<AdmittedRecord> out;
  for (const AdmittedRecord& a : admitted) {
    if (terminal.find(a.id) == terminal.end()) out.push_back(a);
  }
  return out;
}

Outcome<RequestLogReplay> read_request_log(const std::string& path) {
  std::string bytes;
  if (!atomic_io::read_file(path, &bytes)) {
    return Outcome<RequestLogReplay>::malformed(
        "cannot open request log '" + path + "'");
  }
  if (bytes.empty()) {
    return Outcome<RequestLogReplay>::malformed(
        "request log '" + path +
        "' exists but is empty — refusing to treat it as fresh "
        "(externally truncated?)");
  }
  RequestLogReplay replay;
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
      // A torn magic write has no newline and is handled above; a
      // COMPLETE first line that is not the magic is a foreign file.
      if (line != kMagicLine) {
        return Outcome<RequestLogReplay>::malformed(
            path + ": not an odcfp request log (bad magic line)");
      }
    } else {
      std::string_view payload;
      if (!line.empty() && line[0] == 'A' &&
          journal_wire::checked_payload(line, 'A', &payload)) {
        AdmittedRecord record;
        if (!parse_admitted_payload(payload, &record)) {
          return Outcome<RequestLogReplay>::malformed(
              path + ": corrupt admitted record at line " +
              std::to_string(line_index + 1));
        }
        if (record.id >= replay.next_id) replay.next_id = record.id + 1;
        replay.admitted.push_back(std::move(record));
      } else if (!line.empty() && line[0] == 'T' &&
                 journal_wire::checked_payload(line, 'T', &payload)) {
        TerminalRecord record;
        if (!parse_terminal_payload(payload, &record)) {
          return Outcome<RequestLogReplay>::malformed(
              path + ": corrupt terminal record at line " +
              std::to_string(line_index + 1));
        }
        replay.terminal[record.id] = std::move(record);
      } else {
        // Unreadable line: tolerated only as a torn FINAL record.
        if (is_final) {
          replay.torn_tail = true;
          break;
        }
        return Outcome<RequestLogReplay>::malformed(
            path + ": corrupt record at line " +
            std::to_string(line_index + 1));
      }
    }
    pos = nl + 1;
    replay.valid_bytes = pos;
    ++line_index;
  }
  return Outcome<RequestLogReplay>::success(std::move(replay));
}

struct RequestLog::Impl {
  std::string path;
  int fd = -1;
  std::mutex mu;

  ~Impl() {
    if (fd >= 0) ::close(fd);
  }

  bool append_line(const std::string& line, std::string* error) {
    std::string diag;
    std::lock_guard<std::mutex> lock(mu);
    if (fd < 0) {
      diag = "request log '" + path + "' is not open";
    } else {
      struct stat st;
      if (::fstat(fd, &st) != 0) {
        diag = errno_message("fstat", path);
      } else {
        std::size_t off = 0;
        try {
          ODCFP_FAULT_POINT("service.request_log.append");
        } catch (const fault::InjectedDiskFull& e) {
          // Same short-write discipline as Journal::append: land the
          // accepted prefix, then roll back below.
          const std::size_t short_n =
              std::min(e.short_bytes, line.size());
          if (short_n > 0) {
            (void)::write(fd, line.data(), short_n);
            off = short_n;
          }
          diag = std::string("short write (disk full) on '") + path +
                 "': " + e.what();
        } catch (const std::exception& e) {
          diag = std::string("injected fault appending to '") + path +
                 "': " + e.what();
        }
        while (diag.empty() && off < line.size()) {
          const ssize_t n =
              ::write(fd, line.data() + off, line.size() - off);
          if (n < 0) {
            if (errno == EINTR) continue;
            diag = errno_message("append", path);
            break;
          }
          off += static_cast<std::size_t>(n);
        }
        if (!diag.empty() && off > 0) {
          // A partial line mid-file would read as corruption; roll the
          // file back to the pre-append size.
          if (::ftruncate(fd, st.st_size) != 0) {
            ::close(fd);
            fd = -1;
            diag += "; rollback failed, request log closed";
          }
        }
        if (diag.empty() && ::fsync(fd) != 0) {
          diag = errno_message("fsync", path);
        }
      }
    }
    if (diag.empty()) return true;
    log::warn("service.request_log_append_failed").field("error", diag);
    if (error != nullptr) *error = diag;
    return false;
  }
};

RequestLog::RequestLog() : impl_(std::make_unique<Impl>()) {}
RequestLog::~RequestLog() = default;
RequestLog::RequestLog(RequestLog&&) noexcept = default;
RequestLog& RequestLog::operator=(RequestLog&&) noexcept = default;

bool RequestLog::is_open() const {
  return impl_ != nullptr && impl_->fd >= 0;
}

void RequestLog::close() {
  if (impl_ != nullptr && impl_->fd >= 0) {
    ::close(impl_->fd);
    impl_->fd = -1;
  }
}

Outcome<RequestLog> RequestLog::create(const std::string& path) {
  RequestLog log;
  log.impl_->path = path;
  std::string prologue = kMagicLine;
  prologue += '\n';
  std::string error;
  const int fd = atomic_io::create_with_prologue(path, prologue, &error);
  if (fd < 0) return Outcome<RequestLog>::malformed(error);
  log.impl_->fd = fd;
  return Outcome<RequestLog>::success(std::move(log));
}

Outcome<RequestLog> RequestLog::append_to(const std::string& path,
                                          const RequestLogReplay& replay) {
  RequestLog log;
  log.impl_->path = path;
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) {
    return Outcome<RequestLog>::malformed(errno_message("open", path));
  }
  log.impl_->fd = fd;
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return Outcome<RequestLog>::malformed(errno_message("fstat", path));
  }
  if (static_cast<std::uint64_t>(st.st_size) != replay.valid_bytes) {
    if (::ftruncate(fd, static_cast<off_t>(replay.valid_bytes)) != 0 ||
        ::fsync(fd) != 0) {
      return Outcome<RequestLog>::malformed(
          errno_message("truncate torn tail", path));
    }
    log::warn("service.request_log_torn_tail_dropped")
        .field("path", path)
        .field("bytes_dropped",
               static_cast<std::int64_t>(st.st_size) -
                   static_cast<std::int64_t>(replay.valid_bytes));
  }
  return Outcome<RequestLog>::success(std::move(log));
}

bool RequestLog::append_admitted(const AdmittedRecord& record,
                                 std::string* error) {
  return impl_->append_line(
      journal_wire::format_line('A', admitted_payload(record)), error);
}

bool RequestLog::append_terminal(const TerminalRecord& record,
                                 std::string* error) {
  return impl_->append_line(
      journal_wire::format_line('T', terminal_payload(record)), error);
}

}  // namespace odcfp::service
