// Fingerprinting service daemon.
//
// Runs a service::Server in the foreground until SIGTERM/SIGINT, then
// stops gracefully (in-flight requests keep their admitted records and
// become the next daemon's replay set). Prints one machine-parsable
// ready line once the socket is listening:
//
//   odcfp_serviced ready socket=<path> state_dir=<path> pid=<pid>
//
// Tenant quotas are passed as repeatable flags:
//   --tenant NAME:CAPACITY:REFILL_PER_SEC:PRIORITY
// Tenants not listed fall back to --default-capacity/--default-refill.
// Every numeric value must parse whole (counts as decimal u64, rates and
// capacities as finite decimals, a priority as a whole number); a
// malformed one exits 2 before the daemon opens its socket.
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/record_log.hpp"
#include "service/server.hpp"

namespace {

using odcfp::record_log::parse_double;
using odcfp::record_log::parse_u64;

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --socket PATH --state-dir DIR [options]\n"
      "  --executors N            executor threads (default 1; 0 = "
      "accept-only)\n"
      "  --pool-threads N         shared ThreadPool size (default 1)\n"
      "  --queue-capacity N       bounded queue size (default 64)\n"
      "  --default-deadline-ms MS deadline for requests without one\n"
      "  --max-delay-overhead R  per-edition delay constraint (0 = off)\n"
      "  --tenant NAME:CAP:REFILL:PRIO   per-tenant quota (repeatable)\n"
      "  --default-capacity N     token capacity for unlisted tenants\n"
      "  --default-refill R      tokens/sec for unlisted tenants\n",
      argv0);
}

bool parse_tenant(const std::string& text,
                  std::map<std::string, odcfp::service::TenantQuota>* out) {
  // NAME:CAP:REFILL:PRIO
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == ':') {
      parts.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  if (parts.size() != 4 || parts[0].empty()) return false;
  odcfp::service::TenantQuota quota;
  double priority = 0;
  if (!parse_double(parts[1], &quota.bucket.capacity) ||
      !parse_double(parts[2], &quota.bucket.refill_per_sec) ||
      !parse_double(parts[3], &priority) || priority != std::trunc(priority) ||
      priority < INT32_MIN || priority > INT32_MAX) {
    return false;
  }
  quota.priority = static_cast<int>(priority);
  (*out)[parts[0]] = quota;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  odcfp::service::ServiceConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "odcfp_serviced: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    // Numeric values parse whole, before any socket or pool exists.
    auto bad_value = [](const char* flag, const char* text) {
      std::fprintf(stderr, "odcfp_serviced: bad %s value '%s'\n", flag,
                   text);
      std::exit(2);
    };
    auto number = [&](const char* flag,
                      std::uint64_t max = UINT64_MAX) -> std::uint64_t {
      const char* text = next(flag);
      std::uint64_t n = 0;
      if (!parse_u64(text, &n) || n > max) bad_value(flag, text);
      return n;
    };
    auto real = [&](const char* flag) -> double {
      const char* text = next(flag);
      double v = 0;
      if (!parse_double(text, &v)) bad_value(flag, text);
      return v;
    };
    if (arg == "--socket") {
      config.socket_path = next("--socket");
    } else if (arg == "--state-dir") {
      config.state_dir = next("--state-dir");
    } else if (arg == "--executors") {
      config.num_executors =
          static_cast<int>(number("--executors", INT32_MAX));
    } else if (arg == "--pool-threads") {
      config.pool_threads =
          static_cast<int>(number("--pool-threads", INT32_MAX));
    } else if (arg == "--queue-capacity") {
      config.queue_capacity = number("--queue-capacity");
    } else if (arg == "--default-deadline-ms") {
      config.default_deadline_ms = number("--default-deadline-ms");
    } else if (arg == "--max-delay-overhead") {
      config.max_delay_overhead = real("--max-delay-overhead");
    } else if (arg == "--tenant") {
      if (!parse_tenant(next("--tenant"), &config.tenants)) {
        std::fprintf(stderr,
                     "odcfp_serviced: --tenant expects "
                     "NAME:CAP:REFILL:PRIO\n");
        return 2;
      }
    } else if (arg == "--default-capacity") {
      config.default_quota.bucket.capacity = real("--default-capacity");
    } else if (arg == "--default-refill") {
      config.default_quota.bucket.refill_per_sec = real("--default-refill");
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "odcfp_serviced: unknown flag '%s'\n",
                   arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (config.socket_path.empty() || config.state_dir.empty()) {
    usage(argv[0]);
    return 2;
  }

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = on_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  auto server = odcfp::service::Server::start(config);
  if (!server.ok()) {
    std::fprintf(stderr, "odcfp_serviced: start failed: %s\n",
                 server.message().c_str());
    return 1;
  }
  std::printf("odcfp_serviced ready socket=%s state_dir=%s pid=%d\n",
              config.socket_path.c_str(), config.state_dir.c_str(),
              static_cast<int>(::getpid()));
  std::fflush(stdout);

  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "odcfp_serviced: stopping\n");
  server.value()->stop();
  return 0;
}
