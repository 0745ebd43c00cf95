// Command-line client for the fingerprinting service daemon.
//
// usage: odcfp_client --socket PATH <command> [args]
//   ping
//   submit --tenant T --circuit C --buyers N [--seed S]
//          [--deadline-ms MS] [--verify] [--label L]
//   status --id N
//   wait --id N [--timeout-ms MS]
//   stats
//
// Exit codes: 0 success; 1 transport/daemon error; 2 usage (including a
// numeric flag that is not a whole decimal number in range, refused
// before any socket is opened); 4 request rejected by admission control
// (reason on stdout).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/record_log.hpp"
#include "service/client.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --socket PATH <command> [args]\n"
      "  ping\n"
      "  submit --tenant T --circuit C --buyers N [--seed S]\n"
      "         [--deadline-ms MS] [--verify] [--label L]\n"
      "  status --id N\n"
      "  wait --id N [--timeout-ms MS]\n"
      "  stats\n"
      "exit: 0 ok, 1 daemon/transport error, 2 usage, 4 rejected\n",
      argv0);
}

void print_status(const odcfp::service::StatusReply& st) {
  std::printf("state=%s terminal=%d committed=%llu crc=%08x detail=%s\n",
              st.state.c_str(), st.terminal ? 1 : 0,
              static_cast<unsigned long long>(st.committed),
              st.artifact_crc, st.detail.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string command;
  odcfp::service::RequestSpec spec;
  std::uint64_t id = 0;
  bool have_id = false;
  std::int64_t timeout_ms = 60'000;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "odcfp_client: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    // A whole decimal u64 (record_log::parse_u64) of at most `max`.
    auto number = [&](const char* flag,
                      std::uint64_t max = UINT64_MAX) -> std::uint64_t {
      const char* text = next(flag);
      std::uint64_t n = 0;
      if (!odcfp::record_log::parse_u64(text, &n) || n > max) {
        std::fprintf(stderr, "odcfp_client: bad %s value '%s'\n", flag,
                     text);
        std::exit(2);
      }
      return n;
    };
    if (arg == "--socket") {
      socket_path = next("--socket");
    } else if (arg == "--tenant") {
      spec.tenant = next("--tenant");
    } else if (arg == "--circuit") {
      spec.circuit = next("--circuit");
    } else if (arg == "--buyers") {
      spec.buyers = number("--buyers");
    } else if (arg == "--seed") {
      spec.seed = number("--seed");
    } else if (arg == "--deadline-ms") {
      spec.deadline_ms = number("--deadline-ms");
    } else if (arg == "--verify") {
      spec.verify = true;
    } else if (arg == "--label") {
      spec.label = next("--label");
    } else if (arg == "--id") {
      id = number("--id");
      have_id = true;
    } else if (arg == "--timeout-ms") {
      timeout_ms = static_cast<std::int64_t>(number("--timeout-ms", INT64_MAX));
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "odcfp_client: unknown flag '%s'\n",
                   arg.c_str());
      return 2;
    } else if (command.empty()) {
      command = arg;
    } else {
      std::fprintf(stderr, "odcfp_client: extra argument '%s'\n",
                   arg.c_str());
      return 2;
    }
  }
  if (socket_path.empty() || command.empty()) {
    usage(argv[0]);
    return 2;
  }

  odcfp::service::Client client(socket_path);

  if (command == "ping") {
    if (client.ping()) {
      std::printf("pong\n");
      return 0;
    }
    std::fprintf(stderr, "odcfp_client: no daemon at %s\n",
                 socket_path.c_str());
    return 1;
  }
  if (command == "submit") {
    if (spec.tenant.empty() || spec.circuit.empty() || spec.buyers == 0) {
      std::fprintf(stderr,
                   "odcfp_client: submit needs --tenant, --circuit, "
                   "--buyers\n");
      return 2;
    }
    auto reply = client.submit(spec);
    if (!reply.ok()) {
      std::fprintf(stderr, "odcfp_client: submit failed: %s\n",
                   reply.message().c_str());
      return 1;
    }
    if (!reply.value().accepted) {
      std::printf("rejected reason=%s detail=%s\n",
                  odcfp::service::to_string(reply.value().reason),
                  reply.value().detail.c_str());
      return 4;
    }
    std::printf("accepted id=%llu\n",
                static_cast<unsigned long long>(reply.value().id));
    return 0;
  }
  if (command == "status" || command == "wait") {
    if (!have_id) {
      std::fprintf(stderr, "odcfp_client: %s needs --id\n",
                   command.c_str());
      return 2;
    }
    auto reply = command == "status" ? client.status(id)
                                     : client.wait(id, timeout_ms);
    if (!reply.ok()) {
      std::fprintf(stderr, "odcfp_client: %s failed: %s\n",
                   command.c_str(), reply.message().c_str());
      return 1;
    }
    print_status(reply.value());
    return 0;
  }
  if (command == "stats") {
    auto reply = client.stats();
    if (!reply.ok()) {
      std::fprintf(stderr, "odcfp_client: stats failed: %s\n",
                   reply.message().c_str());
      return 1;
    }
    const auto& s = reply.value();
    std::printf(
        "admitted=%llu replayed=%llu completed=%llu degraded=%llu "
        "failed=%llu shed_overloaded=%llu shed_quota=%llu "
        "shed_timeout=%llu rejected_malformed=%llu queue_depth=%llu\n",
        static_cast<unsigned long long>(s.admitted),
        static_cast<unsigned long long>(s.replayed),
        static_cast<unsigned long long>(s.completed),
        static_cast<unsigned long long>(s.degraded),
        static_cast<unsigned long long>(s.failed),
        static_cast<unsigned long long>(s.shed_overloaded),
        static_cast<unsigned long long>(s.shed_quota),
        static_cast<unsigned long long>(s.shed_timeout),
        static_cast<unsigned long long>(s.rejected_malformed),
        static_cast<unsigned long long>(s.queue_depth));
    return 0;
  }
  std::fprintf(stderr, "odcfp_client: unknown command '%s'\n",
               command.c_str());
  usage(argv[0]);
  return 2;
}
