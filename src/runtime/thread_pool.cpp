#include "runtime/thread_pool.hpp"

#include <utility>

#include "common/diagnostics.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mh::rt {

ThreadPool::ThreadPool(std::size_t nthreads, std::string name)
    : name_(std::move(name)) {
  MH_CHECK(nthreads >= 1, "pool needs at least one worker");
  threads_.reserve(nthreads);
  for (std::size_t i = 0; i < nthreads; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  // Workers only exit once the queue is empty, so every pending task runs.
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  MH_CHECK(task != nullptr, "null task");
  {
    std::scoped_lock lock(mu_);
    MH_CHECK(!stop_, "pool is shutting down");
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::worker_loop(std::size_t index) {
  if (!name_.empty()) {
    obs::set_thread_label(name_ + "/" + std::to_string(index));
  }
  // One critical section per task: record the previous task's completion,
  // then wait for and claim the next one.
  std::unique_lock lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping and fully drained
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    lock.unlock();

    std::exception_ptr error;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    // Destroy the task's captures before its completion becomes visible to
    // wait_idle, and outside mu_ (a capture's destructor may submit).
    task = nullptr;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - t0);

    lock.lock();
    --active_;
    ++executed_;
    busy_ns_ += static_cast<std::uint64_t>(ns.count());
    if (error && !first_error_) first_error_ = error;
    if (active_ == 0 && queue_.empty()) idle_cv_.notify_all();
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  if (first_error_) {
    std::exception_ptr e = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

std::size_t ThreadPool::executed() const {
  std::scoped_lock lock(mu_);
  return executed_;
}

ThreadPool::Stats ThreadPool::stats() const {
  const std::chrono::duration<double> uptime =
      std::chrono::steady_clock::now() - created_;
  Stats s;
  s.workers = threads_.size();
  s.uptime_seconds = uptime.count();
  std::scoped_lock lock(mu_);
  s.queued = queue_.size();
  s.active = active_;
  s.executed = executed_;
  s.busy_seconds = static_cast<double>(busy_ns_) * 1e-9;
  return s;
}

void ThreadPool::sample_metrics(obs::MetricsRegistry& registry) const {
  const Stats s = stats();
  const obs::Labels labels{{"pool", name_.empty() ? "anonymous" : name_}};
  registry.gauge("mh_pool_workers", "worker threads in the pool", labels)
      .set(static_cast<double>(s.workers));
  registry.gauge("mh_pool_queue_depth", "tasks waiting in the pool queue",
                 labels)
      .set(static_cast<double>(s.queued));
  registry.gauge("mh_pool_active", "tasks currently executing", labels)
      .set(static_cast<double>(s.active));
  registry.gauge("mh_pool_executed", "tasks executed since construction",
                 labels)
      .set(static_cast<double>(s.executed));
  registry
      .gauge("mh_pool_utilization",
             "busy fraction of worker-seconds since construction", labels)
      .set(s.utilization());
}

}  // namespace mh::rt
