// Deterministic fork/join parallelism for the batch-serving layers.
//
// The pipeline's hot paths — per-primary-gate location analysis, stamping
// N buyer editions, fanning CEC of every edition against the golden
// netlist — are embarrassingly parallel: each work item reads shared
// immutable inputs (the golden Netlist, the Codebook, the analyzers,
// which hold no mutable caches) and writes only its own result slot.
// ThreadPool::parallel_for exploits exactly that shape and nothing more.
//
// Determinism contract: parallel_for assigns work items to threads
// dynamically (atomic work-stealing counter), but every item `i` writes
// only results keyed by `i`, so the *assembled* result vector is
// byte-identical for any thread count — including the inline serial path
// used when the pool is null. Callers must not branch on execution order;
// reductions happen on the caller thread in index order after the join.
// The only sanctioned nondeterminism is *which* items complete when a
// Budget dies mid-loop: exhaustion stops the issue of new indices, and
// every unexecuted item keeps whatever "skipped" default the caller
// pre-filled (the batch layer tags those Status::kExhausted).
//
// Cancellation: parallel_for polls the Budget (deadline and the shared
// CancelToken) between items, so a serving layer can abandon a whole
// fan-out from another thread; the loop then joins and returns
// Status::kExhausted instead of killing threads mid-item.
//
// Exceptions: the first exception thrown by any item aborts the issue of
// new indices, the loop joins, and the exception is rethrown on the
// calling thread (CheckError from a worker propagates like serial code).
//
// Observability: parallel_for captures the calling thread's open-span
// path (telemetry::current_path) and re-roots every item a worker runs
// under it (telemetry::AttachScope), so an item's spans, counters and
// log records land under the phase that issued the loop, exactly as if
// the caller had run it. Call sites need no telemetry code of their own.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/budget.hpp"

namespace odcfp {

/// A fixed pool of worker threads for fork/join loops. The constructing
/// thread participates in every loop, so ThreadPool(1) spawns no workers
/// and runs loops inline; ThreadPool(4) spawns three workers.
///
/// One loop runs at a time; a parallel_for issued while another loop is
/// in flight (nested parallelism, or a second caller thread) safely
/// degrades to inline serial execution instead of deadlocking.
class ThreadPool {
 public:
  /// num_threads <= 0 selects the hardware concurrency (at least 1).
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism degree (workers + the calling thread).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs body(i) for every i in [0, n), distributing items across the
  /// pool; blocks until every started item finished. Returns kOk when all
  /// n items ran, kExhausted when `budget` died first (remaining items
  /// were never started). Rethrows the first item exception.
  Status parallel_for(std::size_t n,
                      const std::function<void(std::size_t)>& body,
                      const Budget* budget = nullptr);

 private:
  struct ForLoop;

  void worker_main();
  /// Runs items until the loop is drained; `on_worker` re-roots each
  /// under the caller's span path.
  static void run_items(ForLoop& loop, bool on_worker);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  ForLoop* loop_ = nullptr;  ///< In-flight loop; guarded by mu_.
  std::uint64_t generation_ = 0;  ///< Loops published; guarded by mu_.
  bool stopping_ = false;
};

/// Pool-optional entry point: runs serially (still honoring `budget`)
/// when `pool` is null — the degradation path for single-core serving.
Status parallel_for(ThreadPool* pool, std::size_t n,
                    const std::function<void(std::size_t)>& body,
                    const Budget* budget = nullptr);

/// Maps fn over [0, n) into a result vector with deterministic (index)
/// ordering. R must be default-constructible; items skipped on budget
/// exhaustion keep the default-constructed value, and the returned Status
/// says whether that happened.
template <typename Fn>
auto parallel_map(ThreadPool* pool, std::size_t n, Fn&& fn,
                  const Budget* budget = nullptr)
    -> std::pair<std::vector<decltype(fn(std::size_t{}))>, Status> {
  std::vector<decltype(fn(std::size_t{}))> out(n);
  const Status status = parallel_for(
      pool, n, [&](std::size_t i) { out[i] = fn(i); }, budget);
  return {std::move(out), status};
}

}  // namespace odcfp
