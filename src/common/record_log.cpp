#include "common/record_log.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <exception>
#include <limits>
#include <mutex>
#include <system_error>

#include "common/fault.hpp"
#include "common/log.hpp"

namespace odcfp::record_log {

namespace {

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

/// Offset of the value of `key=` where it starts a field, or npos.
std::size_t value_offset(std::string_view payload, std::string_view key) {
  for (std::size_t pos = payload.find(key); pos != std::string_view::npos;
       pos = payload.find(key, pos + 1)) {
    const std::size_t eq = pos + key.size();
    if ((pos == 0 || payload[pos - 1] == ' ') && eq < payload.size() &&
        payload[eq] == '=') {
      return eq + 1;
    }
  }
  return std::string_view::npos;
}

/// "<tag> <crc8> <payload>" -> tag and payload, framing and CRC checked.
bool checked_line(std::string_view line, char* tag,
                  std::string_view* payload) {
  std::uint64_t recorded = 0;
  if (line.size() < 11 || line[1] != ' ' || line[10] != ' ' ||
      !parse_hex(line.substr(2, 8), 8, &recorded)) {
    return false;
  }
  *tag = line[0];
  *payload = line.substr(11);
  return atomic_io::crc32(*payload) == recorded;
}

/// The diagnostic for a payload a newline would split into two lines.
std::string newline_refusal(const std::string& path) {
  return "refusing a record whose payload holds a newline for '" + path +
         "'";
}

const Kind* find_kind(const Format& format, char tag) {
  for (const Kind& k : format.kinds) {
    if (k.tag == tag) return &k;
  }
  return nullptr;
}

}  // namespace

// ------------------------------------------------------------ primitives

bool parse_u64(std::string_view text, std::uint64_t* out) {
  if (text.empty()) return false;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (v > (kMax - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

bool parse_double(std::string_view text, double* out) {
  double v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

bool parse_hex(std::string_view text, std::size_t width, std::uint64_t* out) {
  if (width > 16 || text.size() != width) return false;
  std::uint64_t v = 0;
  for (const char c : text) {
    std::uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
    v = v * 16 + digit;
  }
  *out = v;
  return true;
}

std::string hex(std::uint64_t value, std::size_t width) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(width, '0');
  for (std::size_t i = width; i-- > 0 && value != 0; value /= 16) {
    out[i] = kDigits[value % 16];
  }
  return out;
}

std::optional<std::string_view> field(std::string_view payload,
                                      std::string_view key) {
  const std::size_t at = value_offset(payload, key);
  if (at == std::string_view::npos) return std::nullopt;
  return payload.substr(at, payload.find(' ', at) - at);
}

std::optional<std::string_view> tail_field(std::string_view payload,
                                           std::string_view key) {
  const std::size_t at = value_offset(payload, key);
  if (at == std::string_view::npos) return std::nullopt;
  return payload.substr(at);
}

bool Fields::next_is(std::string_view key) const {
  return rest_.size() > key.size() && rest_.substr(0, key.size()) == key &&
         rest_[key.size()] == '=';
}

bool Fields::take_key(std::string_view key) {
  if (!next_is(key)) return false;
  rest_.remove_prefix(key.size() + 1);
  return true;
}

bool Fields::text(std::string_view key, std::string_view* out) {
  if (!take_key(key)) return false;
  const std::size_t sp = rest_.find(' ');
  *out = rest_.substr(0, sp);
  rest_.remove_prefix(sp == std::string_view::npos ? rest_.size() : sp + 1);
  return true;
}

bool Fields::u64(std::string_view key, std::uint64_t* out) {
  std::string_view value;
  return text(key, &value) && parse_u64(value, out);
}

bool Fields::optional_u64(std::string_view key, std::uint64_t* out) {
  return !next_is(key) || u64(key, out);
}

bool Fields::optional_text(std::string_view key, std::string_view* out) {
  return !next_is(key) || text(key, out);
}

bool Fields::tail(std::string_view key, std::string* out) {
  if (!take_key(key)) return false;
  *out = std::string(rest_);
  rest_ = {};
  return true;
}

// --------------------------------------------------------------- framing

std::string format_line(char tag, std::string_view payload) {
  std::string line(1, tag);
  line += ' ';
  line += hex(atomic_io::crc32(payload), 8);
  line += ' ';
  line += payload;
  line += '\n';
  return line;
}

std::string header_payload(const JournalHeader& h) {
  return "seed=" + std::to_string(h.seed) +
         " buyers=" + std::to_string(h.num_buyers) +
         " config=" + hex(h.config_crc, 8) + " label=" + h.label;
}

bool parse_header_payload(std::string_view payload, JournalHeader* out) {
  Fields in(payload);
  return in.u64("seed", &out->seed) && in.u64("buyers", &out->num_buyers) &&
         in.hex("config", &out->config_crc) && in.tail("label", &out->label);
}

// ----------------------------------------------------- one-record files

atomic_io::WriteResult write_one(const std::string& path,
                                 std::string_view magic, char tag,
                                 std::string_view payload) {
  if (payload.find('\n') != std::string_view::npos) {
    return {false, newline_refusal(path)};
  }
  std::string data(magic);
  data += '\n';
  data += format_line(tag, payload);
  return atomic_io::write_file_atomic(path, data);
}

Outcome<bool> read_one(const std::string& path, std::string_view magic,
                       char tag, std::string_view noun,
                       const std::function<bool(std::string_view)>& parse) {
  std::string data;
  if (!atomic_io::read_file(path, &data)) {
    return Outcome<bool>::malformed("cannot read " + std::string(noun) +
                                    " '" + path + "'");
  }
  const std::string_view text(data);
  const std::size_t nl = text.find('\n');
  if (nl == std::string_view::npos || text.substr(0, nl) != magic ||
      nl + 1 >= text.size()) {
    return Outcome<bool>::malformed("'" + path + "' is not an odcfp " +
                                    std::string(noun));
  }
  const std::string_view rest = text.substr(nl + 1);
  char got = 0;
  std::string_view payload;
  if (!checked_line(rest.substr(0, rest.find('\n')), &got, &payload) ||
      got != tag || !parse(payload)) {
    return Outcome<bool>::malformed(std::string(noun) + " '" + path +
                                    "' failed its checksum or framing");
  }
  return Outcome<bool>::success(true);
}

// ---------------------------------------------------------------- replay

Outcome<Scan> replay(const std::string& path, const Format& format,
                     const OnRecord& on_record) {
  const std::string noun = format.noun;
  std::string bytes;
  if (!atomic_io::read_file(path, &bytes)) {
    return Outcome<Scan>::malformed("cannot open " + noun + " '" + path +
                                    "'");
  }
  if (bytes.empty()) {
    // create() renames the log into place only once its prologue is
    // durable, so no crash leaves a zero-byte file: an empty one means
    // outside truncation (or an unrelated file at the log's path), and
    // treating it as fresh would silently discard what it once recorded.
    return Outcome<Scan>::malformed(
        noun + " '" + path +
        "' exists but is empty — refusing to treat it as a fresh run "
        "(externally truncated?); delete the file to start over");
  }
  Scan scan;
  std::size_t pos = 0;
  for (std::size_t index = 0; pos < bytes.size(); ++index) {
    const std::size_t nl = bytes.find('\n', pos);
    if (nl == std::string::npos) {
      // Trailing bytes without a newline: a line torn by a crash
      // mid-write. Tolerated only because nothing can follow it.
      scan.torn_tail = true;
      break;
    }
    const std::string_view line(bytes.data() + pos, nl - pos);
    const bool is_final = nl + 1 >= bytes.size();
    char tag = 0;
    std::string_view payload;
    const bool framed = index > 0 && checked_line(line, &tag, &payload);
    if (index == 0) {
      // A torn magic write has no newline and is handled above; a
      // complete first line that is not the magic is a foreign file.
      if (line != format.magic) {
        return Outcome<Scan>::malformed(path + ": not an odcfp " + noun +
                                        " (bad magic line)");
      }
    } else if (index == 1 && format.has_header) {
      if (!framed || tag != 'H') {
        if (is_final) {
          // Crash before the header was durable: no work was recorded.
          scan.torn_tail = true;
          break;
        }
        return Outcome<Scan>::malformed(path + ": corrupt header record");
      }
      if (!parse_header_payload(payload, &scan.header)) {
        return Outcome<Scan>::malformed(path + ": corrupt header record");
      }
      scan.has_header = true;
    } else {
      const Kind* kind = framed ? find_kind(format, tag) : nullptr;
      if (kind == nullptr && is_final) {
        scan.torn_tail = true;
        break;
      }
      std::string why;
      if (kind == nullptr || !on_record(tag, payload, index + 1, &why)) {
        if (why.empty()) {
          const Kind* named =
              line.empty() ? nullptr : find_kind(format, line[0]);
          why = "corrupt " +
                std::string(named != nullptr ? named->name : "record") +
                " at line " + std::to_string(index + 1);
        }
        return Outcome<Scan>::malformed(path + ": " + why);
      }
    }
    pos = nl + 1;
    scan.valid_bytes = pos;
  }
  return Outcome<Scan>::success(std::move(scan));
}

// ---------------------------------------------------------------- writer

struct Writer::State {
  std::string path;
  const Format* format = nullptr;
  std::mutex mu;
  int fd = -1;  // guarded by mu once the writer is shared
  std::uint64_t next_seq = 0;

  ~State() {
    if (fd >= 0) ::close(fd);
  }

  /// Writes `line` whole or not at all (rolling back a partial write).
  /// Returns the diagnostic, "" on success.
  std::string write_line(const AppendSite& site, const std::string& line) {
    struct stat st;
    if (::fstat(fd, &st) != 0) return errno_message("fstat", path);
    std::string diag;
    std::size_t off = 0;
    try {
      if (site.fault != nullptr) ODCFP_FAULT_POINT(site.fault);
    } catch (const fault::InjectedDiskFull& e) {
      // Simulated ENOSPC: land the accepted prefix for real so the file
      // carries a genuinely torn record, then take the rollback below.
      const std::size_t short_n = std::min(e.short_bytes, line.size());
      if (short_n > 0) {
        (void)::write(fd, line.data(), short_n);
        off = short_n;
      }
      diag = "short write (disk full) on '" + path + "': " + e.what();
    }
    while (diag.empty() && off < line.size()) {
      const ssize_t n = ::write(fd, line.data() + off, line.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        diag = errno_message("append", path);
        break;
      }
      off += static_cast<std::size_t>(n);
    }
    if (!diag.empty() && off > 0 && ::ftruncate(fd, st.st_size) != 0) {
      // A partial line mid-file would read as corruption on every later
      // replay; with the rollback failed, the log must take no more.
      ::close(fd);
      fd = -1;
      diag += "; rollback failed, " + std::string(format->noun) + " closed";
    }
    return diag;
  }
};

Writer::Writer(const Format& format) : state_(std::make_unique<State>()) {
  state_->format = &format;
}
Writer::~Writer() = default;
Writer::Writer(Writer&&) noexcept = default;
Writer& Writer::operator=(Writer&&) noexcept = default;

bool Writer::is_open() const { return state_ != nullptr && state_->fd >= 0; }
const std::string& Writer::path() const { return state_->path; }

void Writer::close() {
  if (state_ == nullptr) return;
  std::lock_guard<std::mutex> lock(state_->mu);
  if (state_->fd >= 0) ::close(state_->fd);
  state_->fd = -1;
}

Outcome<Writer> Writer::create(const std::string& path, const Format& format,
                               const JournalHeader* header) {
  Writer w(format);
  w.state_->path = path;
  const std::string noun = format.noun;
  try {
    if (format.create_fault != nullptr) {
      ODCFP_FAULT_POINT(format.create_fault);
    }
    if (!atomic_io::make_dirs(parent_dir(path))) {
      return Outcome<Writer>::malformed(
          errno_message(("mkdir for " + noun).c_str(), path));
    }
    std::string prologue(format.magic);
    prologue += '\n';
    if (header != nullptr) {
      const std::string payload = header_payload(*header);
      if (payload.find('\n') != std::string::npos) {
        return Outcome<Writer>::malformed(newline_refusal(path));
      }
      prologue += format_line('H', payload);
    }
    std::string error;
    w.state_->fd = atomic_io::create_with_prologue(path, prologue, &error);
    if (w.state_->fd < 0) return Outcome<Writer>::malformed(error);
  } catch (const std::exception& e) {
    return Outcome<Writer>::malformed("injected fault creating " + noun +
                                      " '" + path + "': " + e.what());
  }
  return Outcome<Writer>::success(std::move(w));
}

Outcome<Writer> Writer::reopen(const std::string& path, const Format& format,
                               std::uint64_t valid_bytes,
                               std::uint64_t next_seq) {
  Writer w(format);
  State& s = *w.state_;
  s.path = path;
  s.next_seq = next_seq;
  // O_RDWR, not O_WRONLY: the prologue re-validation below preads the
  // magic and header back through this descriptor.
  s.fd = ::open(path.c_str(), O_RDWR | O_APPEND | O_CLOEXEC);
  if (s.fd < 0) return Outcome<Writer>::malformed(errno_message("open", path));
  struct stat st;
  if (::fstat(s.fd, &st) != 0) {
    return Outcome<Writer>::malformed(errno_message("fstat", path));
  }
  if (static_cast<std::uint64_t>(st.st_size) != valid_bytes) {
    // Drop the torn tail before appending: O_APPEND writes land at EOF,
    // and EOF must be the end of the last intact record.
    if (::ftruncate(s.fd, static_cast<off_t>(valid_bytes)) != 0 ||
        ::fsync(s.fd) != 0) {
      return Outcome<Writer>::malformed(
          errno_message("truncate torn tail", path));
    }
    log::warn(format.torn_tail_event)
        .field("path", path)
        .field("bytes_dropped", static_cast<std::int64_t>(st.st_size) -
                                    static_cast<std::int64_t>(valid_bytes));
  }
  // Re-validate the prologue against the bytes on disk before any append
  // lands: the replay may have read a file that was since swapped or
  // edited (another process can own the same path), and O_APPEND would
  // happily extend a log whose magic or header no longer checks out.
  // 1 MiB bounds the re-read for headers with very long labels.
  std::string prologue(
      static_cast<std::size_t>(std::min<std::uint64_t>(valid_bytes, 1u << 20)),
      '\0');
  std::size_t got = 0;
  while (got < prologue.size()) {
    const ssize_t n = ::pread(s.fd, prologue.data() + got,
                              prologue.size() - got, static_cast<off_t>(got));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Outcome<Writer>::malformed(
          errno_message("re-read for header validation", path));
    }
    got += static_cast<std::size_t>(n);
  }
  const std::size_t magic_nl = prologue.find('\n');
  if (magic_nl == std::string::npos ||
      std::string_view(prologue).substr(0, magic_nl) != format.magic) {
    return Outcome<Writer>::malformed(
        path + ": magic line no longer valid on disk; refusing to append");
  }
  if (format.has_header && prologue.size() > magic_nl + 1) {
    const std::size_t header_nl = prologue.find('\n', magic_nl + 1);
    char tag = 0;
    std::string_view payload;
    JournalHeader on_disk;
    if (header_nl == std::string::npos ||
        !checked_line(std::string_view(prologue).substr(
                          magic_nl + 1, header_nl - magic_nl - 1),
                      &tag, &payload) ||
        tag != 'H' || !parse_header_payload(payload, &on_disk)) {
      return Outcome<Writer>::malformed(
          path +
          ": header CRC re-validation failed after torn-tail sweep; "
          "refusing to append");
    }
  }
  return Outcome<Writer>::success(std::move(w));
}

bool Writer::append(
    const AppendSite& site,
    const std::function<std::string(std::uint64_t seq)>& make_line,
    std::string* error) {
  State& s = *state_;
  std::string diag;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.fd < 0) {
      diag = std::string(s.format->noun) + " '" + s.path + "' is not open";
    } else {
      const std::string line = make_line(s.next_seq);
      try {
        // One record is one line: a newline inside it would leave a
        // record that no replay can read back.
        diag = line.find('\n') + 1 != line.size()
                   ? newline_refusal(s.path)
                   : s.write_line(site, line);
        if (diag.empty()) {
          if (site.sequenced) ++s.next_seq;
          if (site.fsync_fault != nullptr) ODCFP_FAULT_POINT(site.fsync_fault);
          if (::fsync(s.fd) != 0) diag = errno_message("fsync", s.path);
        }
      } catch (const std::exception& e) {
        diag = "injected fault appending to '" + s.path + "': " + e.what();
      }
    }
  }
  if (diag.empty()) return true;
  if (site.failed_event != nullptr) {
    log::warn(site.failed_event).field("error", diag);
  }
  if (error != nullptr) *error = diag;
  return false;
}

}  // namespace odcfp::record_log
