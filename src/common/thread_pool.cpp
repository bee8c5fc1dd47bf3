#include "common/thread_pool.hpp"

#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"

namespace praxi {

namespace {

// Cached instrument handles: registration locks once, every call after is a
// relaxed atomic op (docs/OBSERVABILITY.md).
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge(
      "praxi_threadpool_queue_depth",
      "Tasks enqueued on the batch-engine pool and not yet started");
  return g;
}

obs::Counter& tasks_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "praxi_threadpool_tasks_total",
      "Tasks executed by the batch-engine pool");
  return c;
}

obs::Histogram& task_seconds_histogram() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      "praxi_threadpool_task_seconds",
      "Wall-clock latency of one pool task (one batch item)",
      obs::latency_buckets());
  return h;
}

}  // namespace

std::size_t ThreadPool::resolve_threads(std::size_t num_threads) {
  if (num_threads != 0) return num_threads;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : hardware;
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t count = resolve_threads(num_threads);
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { run_worker(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    common::LockGuard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::enqueue(std::function<void()> job) {
  {
    common::LockGuard lock(mutex_);
    queue_.push_back(std::move(job));
  }
  queue_depth_gauge().add(1.0);
  cv_.notify_one();
}

void ThreadPool::run_worker() {
  for (;;) {
    std::function<void()> job;
    {
      common::LockGuard lock(mutex_);
      // Condition inline, not in a wait-predicate lambda: TSA analyzes
      // lambdas as separate functions that do not hold mutex_.
      while (!stopping_ && queue_.empty()) cv_.wait(lock);
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_depth_gauge().sub(1.0);
    tasks_counter().inc();
    obs::ScopedTimer timer(task_seconds_histogram());
    job();  // packaged_task: exceptions land in the future, never escape
  }
}

}  // namespace praxi
