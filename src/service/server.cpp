#include "service/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "benchgen/benchmarks.hpp"
#include "common/atomic_io.hpp"
#include "common/clock.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/record_log.hpp"
#include "common/telemetry.hpp"
#include "common/trace.hpp"
#include "dist/runner.hpp"
#include "service/wire.hpp"

namespace odcfp::service {

namespace {

/// In-memory lifecycle of one admitted request.
struct RequestState {
  AdmittedRecord record;
  /// "queued" | "running" | "interrupted" | a terminal outcome name.
  std::string state = "queued";
  bool terminal = false;
  TerminalRecord terminal_record;
  std::uint64_t enqueue_steady_ns = 0;
  bool replayed = false;
};

/// The run a request is: a streaming-codebook run whose seed drives both
/// the codebook and the batch.
dist::RunSpec run_spec_of(const RequestSpec& spec, double max_delay_overhead) {
  dist::RunSpec run;
  run.circuit = spec.circuit;
  run.num_buyers = spec.buyers;
  run.codebook_seed = spec.seed;
  run.batch_seed = spec.seed;
  run.max_delay_overhead = max_delay_overhead;
  run.label = spec.label.empty() ? spec.circuit : spec.label;
  run.codebook = dist::CodebookKind::kStreaming;
  return run;
}

/// Digest over the committed artifacts: crc32 of the per-buyer
/// "buyer:crc\n" lines in buyer order, each crc the one its commit
/// record pinned. Deterministic because artifact bytes are.
std::uint32_t artifact_digest(const dist::ResumableBatchResult& rr) {
  atomic_io::Crc32 digest;
  for (std::size_t b = 0; b < rr.artifacts.size(); ++b) {
    if (rr.artifacts[b].empty()) continue;
    digest.update(std::to_string(b) + ':' +
                  record_log::hex(rr.artifact_crcs[b], 8) + '\n');
  }
  return digest.value();
}

}  // namespace

struct Server::Impl {
  ServiceConfig config;
  std::unique_ptr<AdmissionController> admission;
  RequestLog request_log;
  int listen_fd = -1;

  std::atomic<bool> stopping{false};
  CancelToken stop_token;  ///< cancels every in-flight request budget

  std::thread listener;
  std::vector<std::thread> executors;
  std::unique_ptr<ThreadPool> pool;

  mutable std::mutex mu;
  std::condition_variable queue_cv;  ///< executors wait here
  std::condition_variable state_cv;  ///< wait_terminal waits here
  std::deque<std::uint64_t> queue;   ///< admitted, not yet popped
  std::map<std::uint64_t, RequestState> states;
  std::uint64_t next_id = 1;
  Stats counters;

  ~Impl() {
    if (listen_fd >= 0) ::close(listen_fd);
  }

  // ---------------------------------------------------------- admission

  std::string handle_submit(std::string_view payload) {
    RequestSpec spec;
    spec.tenant = wire::get_field(payload, "tenant");
    spec.circuit = wire::get_field(payload, "circuit");
    spec.label = wire::get_tail_field(payload, "label");
    // A numeric field may be absent (it keeps its default), but one that
    // is present must parse: a wrapped or garbled value is never admitted
    // as some other number.
    std::uint64_t verify = 0;
    const std::pair<const char*, std::uint64_t*> numbers[] = {
        {"verify", &verify},
        {"buyers", &spec.buyers},
        {"seed", &spec.seed},
        {"deadline_ms", &spec.deadline_ms}};
    const char* bad_number = nullptr;
    for (const auto& [key, out] : numbers) {
      if (record_log::field(payload, key) &&
          !wire::get_u64(payload, key, out)) {
        bad_number = key;
      }
    }
    spec.verify = verify != 0;

    // Gate 1: shape. Cheap, total, and before any accounting. A control
    // byte in a logged text field would split its request-log record.
    const auto has_control_byte = [](const std::string& text) {
      return std::any_of(text.begin(), text.end(), [](char c) {
        return static_cast<unsigned char>(c) < 0x20;
      });
    };
    std::string shape_error;
    if (spec.tenant.empty()) {
      shape_error = "missing tenant=";
    } else if (has_control_byte(spec.tenant)) {
      shape_error = "tenant= holds a control byte";
    } else if (has_control_byte(spec.label)) {
      shape_error = "label= holds a control byte";
    } else if (spec.circuit.empty()) {
      shape_error = "missing circuit=";
    } else if (bad_number != nullptr) {
      shape_error = std::string(bad_number) + "= is not a decimal u64";
    } else if (spec.buyers == 0) {
      shape_error = "buyers must be >= 1";
    } else {
      const auto names = benchmark_names();
      if (std::find(names.begin(), names.end(), spec.circuit) ==
          names.end()) {
        shape_error = "unknown circuit '" + spec.circuit + "'";
      }
    }
    if (!shape_error.empty()) {
      std::lock_guard<std::mutex> lock(mu);
      ++counters.rejected_malformed;
      return std::string("rejected reason=") +
             to_string(RejectReason::kMalformed) +
             " detail=" + shape_error;
    }
    if (stopping.load(std::memory_order_relaxed)) {
      return std::string("rejected reason=") +
             to_string(RejectReason::kShuttingDown) +
             " detail=daemon is draining";
    }

    // Gates 2+3: load, then tenant quota.
    const double cost = estimate_request_cost(spec.buyers, spec.verify);
    std::size_t depth;
    {
      std::lock_guard<std::mutex> lock(mu);
      depth = queue.size();
    }
    const AdmitDecision decision = admission->try_admit(
        spec.tenant, cost, depth, clocks::anchored_wall_now_ns());
    if (!decision.admitted) {
      TELEM_COUNT("service.shed_total", 1);
      std::lock_guard<std::mutex> lock(mu);
      if (decision.reason == RejectReason::kOverloaded) {
        ++counters.shed_overloaded;
      } else {
        ++counters.shed_quota;
      }
      trace::instant("service.shed", to_string(decision.reason));
      return std::string("rejected reason=") + to_string(decision.reason) +
             " detail=" + decision.detail;
    }

    // Admitted: durable BEFORE the reply. If the log append fails the
    // request is refused — an accepted reply must imply a durable record.
    AdmittedRecord record;
    record.spec = std::move(spec);
    record.priority = decision.priority;
    record.wall_ns = clocks::anchored_wall_now_ns();
    {
      std::lock_guard<std::mutex> lock(mu);
      record.id = next_id++;
    }
    std::string log_error;
    if (!request_log.append_admitted(record, &log_error)) {
      // Durability failed (disk full, I/O error): the client must NOT
      // hear "accepted" for work a crash would lose. kOverloaded =
      // "retry against this daemon later", which is exactly right for a
      // transient disk. Reclaim the id only if no concurrent submit
      // took a later one — an id gap is harmless, a duplicate is not.
      std::lock_guard<std::mutex> lock(mu);
      if (next_id == record.id + 1) --next_id;
      TELEM_COUNT("service.shed_total", 1);
      ++counters.shed_overloaded;
      return std::string("rejected reason=") +
             to_string(RejectReason::kOverloaded) +
             " detail=request log append failed: " + log_error;
    }
    TELEM_COUNT("service.admitted_total", 1);
    std::ostringstream reply;
    reply << "accepted id=" << record.id;
    {
      std::lock_guard<std::mutex> lock(mu);
      RequestState st;
      st.record = record;
      st.enqueue_steady_ns = clocks::steady_now_ns();
      const std::uint64_t id = record.id;
      states[id] = std::move(st);
      queue.push_back(id);
      ++counters.admitted;
    }
    queue_cv.notify_one();
    return reply.str();
  }

  std::string handle_status(std::string_view payload) {
    std::uint64_t id = 0;
    if (!wire::get_u64(payload, "id", &id)) {
      return "error detail=status needs id=";
    }
    std::lock_guard<std::mutex> lock(mu);
    const auto it = states.find(id);
    if (it == states.end()) {
      return "error detail=unknown request id";
    }
    const RequestState& st = it->second;
    std::ostringstream os;
    os << "status id=" << id << " state=" << st.state
       << " buyers=" << st.record.spec.buyers;
    if (st.terminal) {
      os << " committed=" << st.terminal_record.committed
         << " crc=" << record_log::hex(st.terminal_record.artifact_crc, 8)
         << " detail=" << st.terminal_record.detail;
    }
    return os.str();
  }

  std::string handle_stats() {
    std::lock_guard<std::mutex> lock(mu);
    std::ostringstream os;
    os << "stats admitted=" << counters.admitted
       << " replayed=" << counters.replayed
       << " completed=" << counters.completed
       << " degraded=" << counters.degraded
       << " failed=" << counters.failed
       << " shed_overloaded=" << counters.shed_overloaded
       << " shed_quota=" << counters.shed_quota
       << " shed_timeout=" << counters.shed_timeout
       << " rejected_malformed=" << counters.rejected_malformed
       << " queue_depth=" << queue.size();
    return os.str();
  }

  void handle_connection(int fd) {
    std::string payload;
    std::string error;
    const wire::RecvStatus rs =
        wire::recv_frame(fd, &payload, &error, 2'000);
    if (rs != wire::RecvStatus::kOk) {
      if (rs == wire::RecvStatus::kMalformed) {
        log::warn("service.malformed_frame").field("error", error);
      }
      ::close(fd);
      return;
    }
    const std::string_view verb = wire::verb_of(payload);
    std::string reply;
    if (verb == "ping") {
      reply = "pong";
    } else if (verb == "submit") {
      reply = handle_submit(payload);
    } else if (verb == "status") {
      reply = handle_status(payload);
    } else if (verb == "stats") {
      reply = handle_stats();
    } else {
      reply = "error detail=unknown verb '" + std::string(verb) + "'";
    }
    std::string send_error;
    (void)wire::send_frame(fd, reply, &send_error);
    ::close(fd);
  }

  void listener_main() {
    trace::set_thread_name("service-listener");
    while (!stopping.load(std::memory_order_relaxed)) {
      struct pollfd pfd;
      pfd.fd = listen_fd;
      pfd.events = POLLIN;
      const int pr = ::poll(&pfd, 1, 100);
      if (pr <= 0) continue;
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) continue;
      handle_connection(fd);
    }
  }

  // ---------------------------------------------------------- execution

  /// Pops the best queued request: highest priority, then lowest id
  /// (admission order). Caller holds `mu`.
  std::uint64_t pop_best_locked() {
    auto best = queue.begin();
    for (auto it = std::next(queue.begin()); it != queue.end(); ++it) {
      const RequestState& cand = states[*it];
      const RequestState& cur = states[*best];
      if (cand.record.priority > cur.record.priority ||
          (cand.record.priority == cur.record.priority &&
           *it < *best)) {
        best = it;
      }
    }
    const std::uint64_t id = *best;
    queue.erase(best);
    return id;
  }

  void finish(std::uint64_t id, TerminalRecord terminal) {
    terminal.id = id;
    std::string error;
    if (!request_log.append_terminal(terminal, &error)) {
      // The outcome is real but not durable: the successor will re-run
      // the request (idempotent via its shard journal) and re-record.
      log::warn("service.terminal_not_durable")
          .field("id", id)
          .field("error", error);
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      RequestState& st = states[id];
      st.state = terminal.outcome;
      st.terminal = true;
      st.terminal_record = std::move(terminal);
      if (st.state == "completed") ++counters.completed;
      else if (st.state == "degraded") ++counters.degraded;
      else if (st.state == "shed_timeout") ++counters.shed_timeout;
      else ++counters.failed;
    }
    state_cv.notify_all();
  }

  void run_request(std::uint64_t id) {
    RequestState snapshot;
    {
      std::lock_guard<std::mutex> lock(mu);
      snapshot = states[id];
    }
    const RequestSpec& spec = snapshot.record.spec;
    const std::uint64_t deadline_ms = spec.deadline_ms != 0
                                          ? spec.deadline_ms
                                          : config.default_deadline_ms;
    const std::uint64_t deadline_wall =
        snapshot.record.wall_ns + deadline_ms * 1'000'000ull;
    const std::uint64_t now_wall = clocks::anchored_wall_now_ns();

    TELEM_HIST("service.queue_ns",
               clocks::steady_now_ns() - snapshot.enqueue_steady_ns);

    // Degradation rung 3: the whole deadline passed while queued, and
    // nothing of this request has ever run — shed it explicitly instead
    // of running it with a dead budget. Replayed requests are exempt:
    // they may hold committed work that replay must surface.
    if (!snapshot.replayed && config.queue_timeout_sheds &&
        now_wall >= deadline_wall) {
      TELEM_COUNT("service.shed_total", 1);
      trace::instant("service.shed",
                     to_string(RejectReason::kQueueTimeout));
      TerminalRecord t;
      t.outcome = "shed_timeout";
      t.detail = "queued past deadline";
      finish(id, std::move(t));
      return;
    }

    {
      std::lock_guard<std::mutex> lock(mu);
      states[id].state = "running";
    }
    TELEM_SPAN("service.request");
    const std::uint64_t start_steady = clocks::steady_now_ns();
    const std::int64_t remaining_ms =
        now_wall >= deadline_wall
            ? 0
            : static_cast<std::int64_t>((deadline_wall - now_wall) /
                                        1'000'000ull);
    Budget budget;
    budget.with_deadline_ms(remaining_ms).with_cancel(stop_token);

    // The request is shard 0 of its own run dir, run by the same runner
    // as a sharded run's workers.
    const std::string run_dir = run_dir_of(config.state_dir, id);
    const dist::RunSpec run = run_spec_of(spec, config.max_delay_overhead);
    try {
      const dist::RunInputs inputs(run);
      const Outcome<bool> pinned = dist::pin_run_spec(run_dir, run);
      if (!pinned.ok()) {
        TerminalRecord t;
        t.outcome = "failed";
        t.detail = pinned.message();
        finish(id, std::move(t));
        return;
      }
      dist::ShardOptions shard;
      shard.pool = pool.get();
      shard.budget = &budget;
      const dist::ResumableBatchResult rr =
          dist::run_shard(run_dir, run, inputs, shard);

      if (stopping.load(std::memory_order_relaxed) &&
          rr.status != Status::kOk) {
        // Graceful-stop cancellation, not a real verdict: leave the
        // request non-terminal so the successor daemon replays it.
        std::lock_guard<std::mutex> lock(mu);
        states[id].state = "interrupted";
        return;
      }

      std::uint64_t committed = 0;
      for (const std::string& a : rr.artifacts) {
        if (!a.empty()) ++committed;
      }
      TerminalRecord t;
      t.committed = committed;
      if (rr.status == Status::kOk) {
        t.outcome = "completed";
        t.artifact_crc = artifact_digest(rr);
        if (spec.verify) {
          // Freshly stamped editions get a CEC pass under whatever
          // budget remains. Recovered editions are not re-proven: their
          // netlists are not materialized here, and no commit proves
          // equivalence (`verified` in the journal means only that the
          // edition decodes to its codeword; ROADMAP item 2). Exhaustion
          // mid-verify degrades, it does not fail.
          BatchCecOptions cec;
          cec.pool = pool.get();
          cec.budget = &budget;
          std::size_t checked = 0, proven = 0;
          const auto verdicts = batch_verify_equivalence(
              inputs.golden, rr.batch.editions, cec);
          for (std::size_t b = 0; b < verdicts.size(); ++b) {
            if (rr.batch.editions[b].netlist.num_gates() == 0) continue;
            ++checked;
            if (verdicts[b].ok() && verdicts[b].value().equivalent()) {
              ++proven;
            } else if (verdicts[b].ok() &&
                       !verdicts[b].value().equivalent()) {
              t.outcome = "failed";
              t.detail = "edition " + std::to_string(b) +
                         " not equivalent to golden";
            }
          }
          if (t.outcome == "completed") {
            std::ostringstream os;
            os << "verified " << proven << "/" << checked;
            if (proven < checked) t.outcome = "degraded";
            t.detail = os.str();
          }
        }
      } else if (rr.status == Status::kExhausted) {
        t.outcome = "degraded";
        t.detail = rr.message.empty() ? "deadline hit mid-run"
                                      : rr.message;
      } else {
        t.outcome = "failed";
        t.detail = rr.message;
      }
      TELEM_HIST("service.request_ns",
                 clocks::steady_now_ns() - start_steady);
      finish(id, std::move(t));
    } catch (const std::exception& e) {
      if (stopping.load(std::memory_order_relaxed)) {
        std::lock_guard<std::mutex> lock(mu);
        states[id].state = "interrupted";
        return;
      }
      TerminalRecord t;
      t.outcome = "failed";
      t.detail = e.what();
      finish(id, std::move(t));
    }
  }

  void executor_main(int index) {
    const std::string name = "service-exec-" + std::to_string(index);
    trace::set_thread_name(name.c_str());
    for (;;) {
      std::uint64_t id = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        queue_cv.wait(lock, [&] {
          return stopping.load(std::memory_order_relaxed) ||
                 !queue.empty();
        });
        // On stop, still-queued requests stay durable in the request
        // log: they are the successor's replay set, not ours to drain.
        if (stopping.load(std::memory_order_relaxed)) return;
        id = pop_best_locked();
      }
      run_request(id);
    }
  }
};

Server::Server() : impl_(std::make_unique<Impl>()) {}
Server::~Server() { stop(); }

std::string Server::run_dir_of(const std::string& state_dir,
                               std::uint64_t id) {
  return state_dir + "/runs/req_" + std::to_string(id);
}

std::string Server::request_log_path(const std::string& state_dir) {
  return state_dir + "/requests.odcfp";
}

const std::string& Server::socket_path() const {
  return impl_->config.socket_path;
}

const std::string& Server::state_dir() const {
  return impl_->config.state_dir;
}

Outcome<std::unique_ptr<Server>> Server::start(
    const ServiceConfig& config) {
  using Result = Outcome<std::unique_ptr<Server>>;
  std::unique_ptr<Server> server(new Server());
  Impl& impl = *server->impl_;
  impl.config = config;
  impl.admission = std::make_unique<AdmissionController>(
      config.tenants, config.default_quota, config.queue_capacity);
  impl.pool = std::make_unique<ThreadPool>(
      config.pool_threads > 0 ? config.pool_threads : 1);

  if (!atomic_io::make_dirs(config.state_dir + "/runs")) {
    return Result::malformed("cannot create state dir '" +
                             config.state_dir + "'");
  }

  // Replay or create the request log. Every admitted-without-terminal
  // request is re-enqueued in admission order, flagged replayed.
  const std::string log_path = request_log_path(config.state_dir);
  if (atomic_io::exists(log_path)) {
    Outcome<RequestLogReplay> replayed = read_request_log(log_path);
    if (!replayed.ok()) {
      return Result::malformed(replayed.message());
    }
    const RequestLogReplay& replay = replayed.value();
    Outcome<RequestLog> reopened = RequestLog::append_to(log_path, replay);
    if (!reopened.ok()) {
      return Result::malformed(reopened.message());
    }
    impl.request_log = std::move(reopened).value();
    impl.next_id = replay.next_id;
    for (const AdmittedRecord& record : replay.pending()) {
      RequestState st;
      st.record = record;
      st.replayed = true;
      st.enqueue_steady_ns = clocks::steady_now_ns();
      const std::uint64_t id = record.id;
      impl.states[id] = std::move(st);
      impl.queue.push_back(id);
      ++impl.counters.replayed;
      TELEM_COUNT("service.replayed_total", 1);
    }
    // Terminal requests stay queryable (status verb) after a restart.
    for (const auto& [id, terminal] : replay.terminal) {
      for (const AdmittedRecord& record : replay.admitted) {
        if (record.id != id) continue;
        RequestState st;
        st.record = record;
        st.state = terminal.outcome;
        st.terminal = true;
        st.terminal_record = terminal;
        impl.states[id] = std::move(st);
        break;
      }
    }
    log::info("service.replayed")
        .field("pending", impl.counters.replayed)
        .field("terminal", replay.terminal.size());
  } else {
    Outcome<RequestLog> created = RequestLog::create(log_path);
    if (!created.ok()) {
      return Result::malformed(created.message());
    }
    impl.request_log = std::move(created).value();
  }

  // Bind the socket. A stale socket file from a dead daemon is removed;
  // a LIVE daemon on the same path would have to be holding the listen
  // fd, and the state dir's request log (single writer) is the real
  // mutual-exclusion guard.
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (config.socket_path.size() >= sizeof(addr.sun_path)) {
    return Result::malformed("socket path too long: " +
                             config.socket_path);
  }
  std::memcpy(addr.sun_path, config.socket_path.c_str(),
              config.socket_path.size());
  ::unlink(config.socket_path.c_str());
  impl.listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (impl.listen_fd < 0) {
    return Result::malformed(std::string("socket: ") +
                             std::strerror(errno));
  }
  if (::bind(impl.listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(impl.listen_fd, 64) != 0) {
    return Result::malformed(std::string("bind/listen '") +
                             config.socket_path +
                             "': " + std::strerror(errno));
  }

  impl.listener = std::thread([&impl] { impl.listener_main(); });
  for (int i = 0; i < config.num_executors; ++i) {
    impl.executors.emplace_back([&impl, i] { impl.executor_main(i); });
  }
  log::info("service.started")
      .field("socket", config.socket_path)
      .field("state_dir", config.state_dir)
      .field("executors", config.num_executors)
      .field("replayed", impl.counters.replayed);
  return Result::success(std::move(server));
}

void Server::stop() {
  if (impl_ == nullptr) return;
  bool expected = false;
  if (!impl_->stopping.compare_exchange_strong(expected, true)) {
    return;  // already stopped
  }
  impl_->stop_token.cancel();
  impl_->queue_cv.notify_all();
  if (impl_->listener.joinable()) impl_->listener.join();
  for (std::thread& t : impl_->executors) {
    if (t.joinable()) t.join();
  }
  if (impl_->listen_fd >= 0) {
    ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
  }
  ::unlink(impl_->config.socket_path.c_str());
  impl_->request_log.close();
  log::info("service.stopped").field("socket",
                                     impl_->config.socket_path);
}

Server::Stats Server::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  Stats s = impl_->counters;
  s.queue_depth = impl_->queue.size();
  return s;
}

std::string Server::wait_terminal(std::uint64_t id,
                                  std::int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(impl_->mu);
  const bool done = impl_->state_cv.wait_for(
      lock, std::chrono::milliseconds(timeout_ms), [&] {
        const auto it = impl_->states.find(id);
        return it != impl_->states.end() && it->second.terminal;
      });
  if (!done) return "";
  return impl_->states[id].terminal_record.outcome;
}

}  // namespace odcfp::service
