// Fixed-size worker pool backing the batch-first discovery APIs.
//
// Praxi's key structural property (paper §III) is that tagsets are generated
// once per changeset, independently of every other changeset — tag
// extraction and prediction are embarrassingly parallel. The pool exposes a
// futures-based submit(); the parallel_for() helper on top of it preserves
// deterministic, index-ordered results (item i always lands in slot i, no
// matter which worker ran it), so batch outputs are bit-identical to the
// sequential loop.
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/annotations.hpp"
#include "common/sync.hpp"

namespace praxi {

class ThreadPool {
 public:
  /// Spawns `resolve_threads(num_threads)` workers (0 = one per hardware
  /// thread).
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Drains nothing: outstanding tasks run to completion, then workers join.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Schedules `fn` on a worker; the future carries its result or exception.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using Result = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<Result()>>(std::forward<F>(fn));
    std::future<Result> future = task->get_future();
    enqueue([task] { (*task)(); });
    return future;
  }

  /// Maps the `0 = hardware_concurrency` convention to a worker count
  /// (never less than 1).
  static std::size_t resolve_threads(std::size_t num_threads);

 private:
  void enqueue(std::function<void()> job) PRAXI_EXCLUDES(mutex_);
  void run_worker() PRAXI_EXCLUDES(mutex_);

  common::Mutex mutex_{"thread_pool", common::LockRank::kThreadPool};
  common::CondVar cv_;
  std::deque<std::function<void()>> queue_ PRAXI_GUARDED_BY(mutex_);
  bool stopping_ PRAXI_GUARDED_BY(mutex_) = false;
  // praxi-lint: allow(naked-thread: the pool's own workers)
  std::vector<std::thread> workers_;
};

/// Blocks until every future is ready, then rethrows the first exception
/// any of them carried. Waiting for all of them first means no task still
/// references the caller's state when the exception reaches it.
inline void wait_all(std::vector<std::future<void>>& futures) {
  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

/// Runs fn(i) for every i in [0, count) — on `pool` when it has more than
/// one worker, inline otherwise (a null pool is the explicit sequential
/// path). Blocks until every invocation finished. The first exception thrown
/// by any invocation is rethrown to the caller after all tasks complete.
template <typename Fn>
void parallel_for(ThreadPool* pool, std::size_t count, Fn&& fn) {
  if (pool == nullptr || pool->size() <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    futures.push_back(pool->submit([&fn, i] { fn(i); }));
  }
  wait_all(futures);
}

}  // namespace praxi
