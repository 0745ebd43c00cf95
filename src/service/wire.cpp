#include "service/wire.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/atomic_io.hpp"
#include "common/record_log.hpp"

namespace odcfp::service::wire {

namespace {

constexpr char kMagic[4] = {'O', 'F', 'P', '1'};
constexpr std::size_t kHeaderBytes = 12;  // magic + len + crc

void put_u32le(std::uint32_t v, char* out) {
  out[0] = static_cast<char>(v & 0xFF);
  out[1] = static_cast<char>((v >> 8) & 0xFF);
  out[2] = static_cast<char>((v >> 16) & 0xFF);
  out[3] = static_cast<char>((v >> 24) & 0xFF);
}

std::uint32_t get_u32le(const char* in) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(in[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(in[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(in[2]))
             << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(in[3]))
             << 24;
}

/// Reads exactly n bytes, honoring the shared deadline. Each poll wakes
/// at least every 100 ms so a concurrently-closed fd is noticed.
RecvStatus read_exact(int fd, char* out, std::size_t n, int timeout_ms,
                      std::string* error) {
  std::size_t got = 0;
  int remaining = timeout_ms;
  while (got < n) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int slice =
        timeout_ms < 0 ? 100 : (remaining < 100 ? remaining : 100);
    const int pr = ::poll(&pfd, 1, slice);
    if (pr < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) {
        *error = std::string("poll: ") + std::strerror(errno);
      }
      return RecvStatus::kError;
    }
    if (pr == 0) {
      if (timeout_ms >= 0) {
        remaining -= slice;
        if (remaining <= 0) {
          if (error != nullptr) *error = "frame read timed out";
          return RecvStatus::kTimeout;
        }
      }
      continue;
    }
    const ssize_t r = ::read(fd, out + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) {
        *error = std::string("read: ") + std::strerror(errno);
      }
      return RecvStatus::kError;
    }
    if (r == 0) {
      if (error != nullptr) *error = "peer closed mid-frame";
      return RecvStatus::kClosed;
    }
    got += static_cast<std::size_t>(r);
  }
  return RecvStatus::kOk;
}

}  // namespace

bool send_frame(int fd, std::string_view payload, std::string* error) {
  if (payload.size() > kMaxFramePayload) {
    if (error != nullptr) *error = "frame payload exceeds kMaxFramePayload";
    return false;
  }
  std::string frame(kHeaderBytes + payload.size(), '\0');
  std::memcpy(frame.data(), kMagic, 4);
  put_u32le(static_cast<std::uint32_t>(payload.size()), frame.data() + 4);
  put_u32le(atomic_io::crc32(payload), frame.data() + 8);
  std::memcpy(frame.data() + kHeaderBytes, payload.data(), payload.size());
  std::size_t off = 0;
  while (off < frame.size()) {
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE here instead of a
    // process-killing SIGPIPE. Non-socket fds (pipes in tests) fall back
    // to plain write.
    ssize_t n = ::send(fd, frame.data() + off, frame.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      n = ::write(fd, frame.data() + off, frame.size() - off);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) {
        *error = std::string("write: ") + std::strerror(errno);
      }
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

RecvStatus recv_frame(int fd, std::string* payload, std::string* error,
                      int timeout_ms) {
  char header[kHeaderBytes];
  const RecvStatus hs = read_exact(fd, header, kHeaderBytes, timeout_ms,
                                   error);
  if (hs != RecvStatus::kOk) return hs;
  if (std::memcmp(header, kMagic, 4) != 0) {
    if (error != nullptr) *error = "bad frame magic";
    return RecvStatus::kMalformed;
  }
  const std::uint32_t len = get_u32le(header + 4);
  const std::uint32_t crc = get_u32le(header + 8);
  if (len > kMaxFramePayload) {
    if (error != nullptr) *error = "frame length exceeds kMaxFramePayload";
    return RecvStatus::kMalformed;
  }
  payload->assign(len, '\0');
  if (len > 0) {
    const RecvStatus bs =
        read_exact(fd, payload->data(), len, timeout_ms, error);
    if (bs != RecvStatus::kOk) return bs;
  }
  if (atomic_io::crc32(*payload) != crc) {
    if (error != nullptr) *error = "frame CRC mismatch";
    return RecvStatus::kMalformed;
  }
  return RecvStatus::kOk;
}

std::string_view verb_of(std::string_view payload) {
  const std::size_t sp = payload.find(' ');
  return sp == std::string_view::npos ? payload : payload.substr(0, sp);
}

std::string get_field(std::string_view payload, std::string_view key) {
  return std::string(record_log::field(payload, key).value_or(""));
}

std::string get_tail_field(std::string_view payload, std::string_view key) {
  return std::string(record_log::tail_field(payload, key).value_or(""));
}

bool get_u64(std::string_view payload, std::string_view key,
             std::uint64_t* out) {
  const std::optional<std::string_view> text = record_log::field(payload, key);
  return text.has_value() && record_log::parse_u64(*text, out);
}

}  // namespace odcfp::service::wire
