#include "service/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>

#include "common/clock.hpp"
#include "common/record_log.hpp"
#include "service/wire.hpp"

namespace odcfp::service {

namespace {

int connect_unix(const std::string& path, std::string* error) {
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long: " + path;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    *error = std::string("connect '") + path + "': " +
             std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

Outcome<std::string> Client::round_trip(const std::string& request) {
  using Result = Outcome<std::string>;
  std::string error;
  const int fd = connect_unix(socket_path_, &error);
  if (fd < 0) {
    return Result::exhausted(error);
  }
  if (!wire::send_frame(fd, request, &error)) {
    ::close(fd);
    return Result::exhausted(error);
  }
  std::string reply;
  const wire::RecvStatus rs =
      wire::recv_frame(fd, &reply, &error, timeout_ms_);
  ::close(fd);
  switch (rs) {
    case wire::RecvStatus::kOk:
      return Result::success(std::move(reply));
    case wire::RecvStatus::kMalformed:
      return Result::malformed("service reply malformed: " + error);
    default:
      return Result::exhausted(error);
  }
}

bool Client::ping() {
  Outcome<std::string> reply = round_trip("ping");
  return reply.ok() && reply.value() == "pong";
}

Outcome<SubmitReply> Client::submit(const RequestSpec& spec) {
  using Result = Outcome<SubmitReply>;
  std::ostringstream os;
  os << "submit tenant=" << spec.tenant << " circuit=" << spec.circuit
     << " buyers=" << spec.buyers << " seed=" << spec.seed
     << " deadline_ms=" << spec.deadline_ms
     << " verify=" << (spec.verify ? 1 : 0) << " label=" << spec.label;
  Outcome<std::string> reply = round_trip(os.str());
  if (!reply.ok()) {
    return Result::exhausted(reply.message());
  }
  const std::string& payload = reply.value();
  SubmitReply out;
  const std::string_view verb = wire::verb_of(payload);
  if (verb == "accepted") {
    if (!wire::get_u64(payload, "id", &out.id)) {
      return Result::malformed("accepted reply without id: " + payload);
    }
    out.accepted = true;
    return Result::success(std::move(out));
  }
  if (verb == "rejected") {
    if (!parse_reject_reason(wire::get_field(payload, "reason"),
                             &out.reason)) {
      return Result::malformed("rejected reply with unknown reason: " +
                               payload);
    }
    out.detail = wire::get_tail_field(payload, "detail");
    return Result::success(std::move(out));
  }
  return Result::malformed("unexpected submit reply: " + payload);
}

Outcome<StatusReply> Client::status(std::uint64_t id) {
  using Result = Outcome<StatusReply>;
  std::ostringstream os;
  os << "status id=" << id;
  Outcome<std::string> reply = round_trip(os.str());
  if (!reply.ok()) {
    return Result::exhausted(reply.message());
  }
  const std::string& payload = reply.value();
  if (wire::verb_of(payload) != "status") {
    return Result::malformed("status error: " +
                             wire::get_tail_field(payload, "detail"));
  }
  StatusReply out;
  out.state = wire::get_field(payload, "state");
  out.terminal = out.state == "completed" || out.state == "degraded" ||
                 out.state == "shed_timeout" || out.state == "failed";
  wire::get_u64(payload, "committed", &out.committed);
  std::uint64_t crc = 0;
  if (record_log::parse_hex(wire::get_field(payload, "crc"), 8, &crc)) {
    out.artifact_crc = static_cast<std::uint32_t>(crc);
  }
  out.detail = wire::get_tail_field(payload, "detail");
  return Result::success(std::move(out));
}

Outcome<StatsReply> Client::stats() {
  using Result = Outcome<StatsReply>;
  Outcome<std::string> reply = round_trip("stats");
  if (!reply.ok()) {
    return Result::exhausted(reply.message());
  }
  const std::string& payload = reply.value();
  if (wire::verb_of(payload) != "stats") {
    return Result::malformed("unexpected stats reply: " + payload);
  }
  StatsReply out;
  wire::get_u64(payload, "admitted", &out.admitted);
  wire::get_u64(payload, "replayed", &out.replayed);
  wire::get_u64(payload, "completed", &out.completed);
  wire::get_u64(payload, "degraded", &out.degraded);
  wire::get_u64(payload, "failed", &out.failed);
  wire::get_u64(payload, "shed_overloaded", &out.shed_overloaded);
  wire::get_u64(payload, "shed_quota", &out.shed_quota);
  wire::get_u64(payload, "shed_timeout", &out.shed_timeout);
  wire::get_u64(payload, "rejected_malformed", &out.rejected_malformed);
  wire::get_u64(payload, "queue_depth", &out.queue_depth);
  return Result::success(std::move(out));
}

Outcome<StatusReply> Client::wait(std::uint64_t id,
                                  std::int64_t timeout_ms,
                                  std::int64_t poll_ms) {
  using Result = Outcome<StatusReply>;
  const std::uint64_t deadline =
      clocks::steady_now_ns() +
      static_cast<std::uint64_t>(timeout_ms) * 1'000'000ull;
  StatusReply last;
  for (;;) {
    Outcome<StatusReply> st = status(id);
    if (st.ok()) {
      last = st.value();
      if (last.terminal) return Result::success(std::move(last));
    }
    // A transiently-dead daemon (restarting, replaying) is not terminal:
    // keep polling until the caller's deadline.
    if (clocks::steady_now_ns() >= deadline) {
      return Result::exhausted(std::move(last),
                               "request not terminal within timeout",
                               0.0);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
  }
}

}  // namespace odcfp::service
