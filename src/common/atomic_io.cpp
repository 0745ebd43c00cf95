#include "common/atomic_io.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <sstream>

#include "common/fault.hpp"
#include "common/log.hpp"
#include "common/subprocess.hpp"

namespace odcfp::atomic_io {

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

/// Distinct temp names per (process, call): concurrent writers to the
/// same final path from different threads never collide on the temp.
std::string temp_path_for(const std::string& path) {
  static std::atomic<std::uint64_t> seq{0};
  std::ostringstream os;
  os << path << ".tmp." << ::getpid() << "."
     << seq.fetch_add(1, std::memory_order_relaxed);
  return os.str();
}

/// Best-effort directory fsync: makes the rename itself durable.
void fsync_directory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  (void)::fsync(fd);
  ::close(fd);
}

constexpr std::size_t kWriteChunk = 64 * 1024;

}  // namespace

WriteResult write_file_atomic(const std::string& path,
                              std::string_view data) {
  WriteResult result;
  const std::string tmp = temp_path_for(path);
  int fd = -1;
  try {
    ODCFP_FAULT_POINT("atomic_io.open");
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                0644);
    if (fd < 0) {
      result.error = errno_message("open", tmp);
      return result;
    }
    std::size_t off = 0;
    while (off < data.size()) {
      // One fault point per chunk: an injected fault mid-loop leaves a
      // genuinely partial temp file, which must never become visible.
      try {
        ODCFP_FAULT_POINT("atomic_io.write");
      } catch (const fault::InjectedDiskFull& e) {
        // Simulated ENOSPC: the kernel accepted a short prefix of this
        // chunk before the device filled. Land those bytes for real so
        // the temp file is genuinely truncated, then fail the publish —
        // the unlink below must keep the final path untouched.
        const std::size_t short_n =
            std::min(e.short_bytes, data.size() - off);
        if (short_n > 0) (void)::write(fd, data.data() + off, short_n);
        result.error = std::string("short write (disk full) on '") + tmp +
                       "': " + e.what();
        break;
      }
      const std::size_t chunk = std::min(data.size() - off, kWriteChunk);
      const ssize_t n = ::write(fd, data.data() + off, chunk);
      if (n < 0) {
        if (errno == EINTR) continue;
        result.error = errno_message("write", tmp);
        break;
      }
      off += static_cast<std::size_t>(n);
    }
    if (result.error.empty()) {
      ODCFP_FAULT_POINT("atomic_io.fsync");
      if (::fsync(fd) != 0) result.error = errno_message("fsync", tmp);
    }
    if (result.error.empty()) {
      if (::close(fd) != 0) result.error = errno_message("close", tmp);
      fd = -1;
    }
    if (result.error.empty()) {
      ODCFP_FAULT_POINT("atomic_io.rename");
      if (::rename(tmp.c_str(), path.c_str()) != 0) {
        result.error = errno_message("rename", tmp + " -> " + path);
      }
    }
  } catch (const std::exception& e) {
    // Injected faults (fault::InjectedIoError, std::bad_alloc from
    // FailNthAlloc) surface through the same error-return contract as
    // real I/O failures, so the retry layer sees one failure shape.
    result.error = std::string("injected fault on '") + tmp + "': " +
                   e.what();
  }
  if (!result.error.empty()) {
    if (fd >= 0) ::close(fd);
    ::unlink(tmp.c_str());
    log::warn("atomic_io.write_failed")
        .field("path", path)
        .field("error", result.error);
    return result;
  }
  fsync_directory(parent_dir(path));
  result.ok = true;
  return result;
}

int create_with_prologue(const std::string& path, std::string_view prologue,
                         std::string* error) {
  const std::string tmp = temp_path_for(path);
  const int fd = ::open(tmp.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    *error = errno_message("open", tmp);
    return -1;
  }
  const ssize_t n = ::write(fd, prologue.data(), prologue.size());
  if (n != static_cast<ssize_t>(prologue.size()) || ::fsync(fd) != 0) {
    *error = errno_message("write prologue", tmp);
  } else if (::rename(tmp.c_str(), path.c_str()) != 0) {
    *error = errno_message("rename", tmp + " -> " + path);
  } else {
    fsync_directory(parent_dir(path));
    return fd;
  }
  ::close(fd);
  ::unlink(tmp.c_str());
  return -1;
}

namespace {

/// Extracts the `<pid>` of a `<path>.tmp.<pid>.<seq>` temp name.
/// Returns -1 when the name does not carry a parseable pid.
long temp_owner_pid(const std::string& name, std::size_t marker) {
  std::size_t i = marker + 5;  // past ".tmp."
  long pid = 0;
  std::size_t digits = 0;
  while (i < name.size() && name[i] >= '0' && name[i] <= '9') {
    pid = pid * 10 + (name[i] - '0');
    ++i;
    ++digits;
  }
  if (digits == 0 || i >= name.size() || name[i] != '.') return -1;
  return pid;
}

}  // namespace

std::size_t remove_stale_temps(const std::string& dir,
                               long max_live_age_seconds) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  std::size_t removed = 0;
  const std::time_t now = std::time(nullptr);
  while (const dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    const std::size_t marker = name.find(".tmp.");
    if (marker == std::string::npos) continue;
    const std::string path = dir + "/" + name;
    const long pid = temp_owner_pid(name, marker);
    if (pid > 0 && proc::alive(static_cast<pid_t>(pid))) {
      // A live process owns this temp: it is mid-publish, not debris —
      // unless the file is old enough that the pid must have been
      // recycled since the writer died.
      struct stat st;
      const bool young =
          ::stat(path.c_str(), &st) == 0 &&
          now - st.st_mtime <= max_live_age_seconds;
      if (young) {
        log::info("atomic_io.live_temp_skipped")
            .field("file", name)
            .field("owner_pid", pid);
        continue;
      }
    }
    if (::unlink(path.c_str()) == 0) {
      ++removed;
      log::info("atomic_io.stale_temp_removed").field("file", name);
    }
  }
  ::closedir(d);
  return removed;
}

bool make_dirs(const std::string& dir) {
  if (dir.empty() || dir == "." || dir == "/") return true;
  std::string prefix;
  std::size_t pos = 0;
  while (pos <= dir.size()) {
    const std::size_t next = dir.find('/', pos);
    prefix = dir.substr(0, next == std::string::npos ? dir.size() : next);
    pos = next == std::string::npos ? dir.size() + 1 : next + 1;
    if (prefix.empty()) continue;  // leading '/'
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return false;
    }
  }
  return true;
}

bool exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  std::ostringstream os;
  os << is.rdbuf();
  if (is.bad()) return false;
  *out = os.str();
  return true;
}

namespace {

const std::array<std::uint32_t, 256>& crc32_table() {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  Crc32 crc;
  crc.update(data);
  return crc.value();
}

void Crc32::update(std::string_view data) {
  const auto& table = crc32_table();
  for (const char ch : data) {
    state_ = table[(state_ ^ static_cast<unsigned char>(ch)) & 0xFFu] ^
             (state_ >> 8);
  }
}

}  // namespace odcfp::atomic_io
