// A fixed-size worker pool — the "CPU threads" of the paper's runtime.
//
// One mutex guards one FIFO task queue and the pool's counters; workers
// park on a condition variable while the queue is empty. Tasks run in
// submission order, whether they come from outside the pool or are spawned
// by a running task, so work a task re-submits queues behind everything
// submitted before it. Each worker claims its next task and records the
// previous one's completion in a single critical section.
//
// The first exception thrown by any task is captured and re-thrown from
// wait_idle() (then cleared, so the pool stays usable). A pool may be given
// a name: workers label their trace tracks "<name>/<i>" for src/obs
// sessions. The destructor runs every task still queued before it returns.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace mh::obs {
class MetricsRegistry;
}  // namespace mh::obs

namespace mh::rt {

class ThreadPool {
 public:
  /// Start `nthreads` workers (>= 1). `name` labels worker trace tracks.
  explicit ThreadPool(std::size_t nthreads, std::string name = {});
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Append a task to the queue. Safe to call from worker threads (tasks
  /// may spawn tasks). Throws if the pool is shutting down.
  void submit(std::function<void()> task);

  /// Block until no task is pending or executing, then rethrow the first
  /// task exception, if any.
  void wait_idle();

  std::size_t size() const noexcept { return threads_.size(); }
  const std::string& name() const noexcept { return name_; }
  /// Total tasks completed (including ones that threw).
  std::size_t executed() const;

  /// One consistent reading of the pool's health, as sample_metrics()
  /// publishes it. utilization is the busy fraction of total worker-seconds
  /// since construction.
  struct Stats {
    std::size_t workers = 0;
    std::size_t queued = 0;     ///< tasks waiting in the queue
    std::size_t active = 0;     ///< tasks currently executing
    std::size_t executed = 0;
    double busy_seconds = 0.0;  ///< summed task wall time across workers
    double uptime_seconds = 0.0;
    double utilization() const noexcept {
      const double total = uptime_seconds * static_cast<double>(workers);
      return total > 0.0 ? busy_seconds / total : 0.0;
    }
  };
  Stats stats() const;

  /// Publish this pool's levels as "mh_pool_*" gauges labelled
  /// pool=<name>, read at the time of the call (safe from any thread).
  void sample_metrics(obs::MetricsRegistry& registry) const;

 private:
  void worker_loop(std::size_t index);

  std::string name_;
  const std::chrono::steady_clock::time_point created_ =
      std::chrono::steady_clock::now();

  // mu_ guards the members from here through first_error_.
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait here for a task
  std::condition_variable idle_cv_;  // wait_idle waits here
  std::deque<std::function<void()>> queue_;
  std::size_t active_ = 0;  // tasks claimed and not yet recorded done
  std::size_t executed_ = 0;
  std::uint64_t busy_ns_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
  std::vector<std::thread> threads_;  // last: workers use every member above
};

}  // namespace mh::rt
