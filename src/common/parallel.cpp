#include "common/parallel.hpp"

#include <atomic>
#include <cstdio>
#include <exception>
#include <optional>

#include "common/telemetry.hpp"
#include "common/trace.hpp"

namespace odcfp {

/// Shared state of one fork/join loop. Work is claimed one index at a
/// time from `next` (items are coarse — a whole buyer edition, a whole
/// primary-gate analysis — so the atomic increment is noise). `active`
/// counts threads currently inside run_items; the caller joins by waiting
/// for it to drain after unpublishing the loop.
struct ThreadPool::ForLoop {
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t n = 0;
  const Budget* budget = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> abort{false};      ///< An item threw: stop issuing.
  std::atomic<bool> truncated{false};  ///< Budget died: stop issuing.
  std::mutex error_mu;
  std::exception_ptr error;            ///< First item exception (error_mu).
  int active = 0;                      ///< Participating threads (mu_).
  std::condition_variable done_cv;     ///< Signalled when active drains.
  std::vector<const char*> span_path;  ///< The caller's open spans.
};

namespace {

/// Runs every item on the calling thread, whose open spans the items
/// already nest under.
Status run_serial(std::size_t n,
                  const std::function<void(std::size_t)>& body,
                  const Budget* budget) {
  for (std::size_t i = 0; i < n; ++i) {
    if (budget_exhausted(budget)) return Status::kExhausted;
    body(i);
  }
  return Status::kOk;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 1;
  }
  workers_.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int t = 1; t < num_threads; ++t) {
    workers_.emplace_back([this, t] {
      // Name the worker's trace track up front; the name sticks to the
      // thread even when tracing starts later (set_thread_name copies).
      char name[32];
      std::snprintf(name, sizeof(name), "pool-worker-%d", t);
      trace::set_thread_name(name);
      worker_main();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_main() {
  // A worker joins each published loop at most once: after it drains the
  // indices it sleeps until the next loop instead of re-joining this one
  // while the caller finishes its own last item.
  std::uint64_t joined = 0;
  for (;;) {
    ForLoop* loop = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      const auto fresh_loop = [&] {
        return loop_ != nullptr && generation_ != joined;
      };
      work_cv_.wait(lock, [&] { return stopping_ || fresh_loop(); });
      if (!fresh_loop()) return;  // stopping_ with no work left
      joined = generation_;
      loop = loop_;
      ++loop->active;
    }
    run_items(*loop, /*on_worker=*/true);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--loop->active == 0) loop->done_cv.notify_all();
    }
  }
}

void ThreadPool::run_items(ForLoop& loop, bool on_worker) {
  for (;;) {
    if (loop.abort.load(std::memory_order_relaxed)) return;
    if (budget_exhausted(loop.budget)) {
      loop.truncated.store(true, std::memory_order_relaxed);
      return;
    }
    const std::size_t i = loop.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= loop.n) return;
    try {
      std::optional<telemetry::AttachScope> attach;
      if (on_worker) attach.emplace(loop.span_path);
      (*loop.body)(i);
    } catch (...) {
      loop.abort.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(loop.error_mu);
      if (!loop.error) loop.error = std::current_exception();
      return;
    }
  }
}

Status ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t)>& body,
    const Budget* budget) {
  if (n == 0) {
    return budget_exhausted(budget) ? Status::kExhausted : Status::kOk;
  }
  if (workers_.empty()) return run_serial(n, body, budget);

  ForLoop loop;
  loop.body = &body;
  loop.n = n;
  loop.budget = budget;
  loop.span_path = telemetry::current_path();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (loop_ != nullptr) {
      // A loop is already in flight (nested parallel_for, or a second
      // caller thread): degrade to inline execution instead of deadlocking
      // on the single loop slot.
      return run_serial(n, body, budget);
    }
    loop_ = &loop;
    ++generation_;
  }
  work_cv_.notify_all();

  run_items(loop, /*on_worker=*/false);  // the caller participates

  std::unique_lock<std::mutex> lock(mu_);
  loop_ = nullptr;  // workers arriving late see no work and keep waiting
  loop.done_cv.wait(lock, [&] { return loop.active == 0; });
  lock.unlock();

  if (loop.error) std::rethrow_exception(loop.error);
  return loop.truncated.load(std::memory_order_relaxed)
             ? Status::kExhausted
             : Status::kOk;
}

Status parallel_for(ThreadPool* pool, std::size_t n,
                    const std::function<void(std::size_t)>& body,
                    const Budget* budget) {
  if (pool != nullptr) return pool->parallel_for(n, body, budget);
  return run_serial(n, body, budget);
}

}  // namespace odcfp
