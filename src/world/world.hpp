// A MADNESS-style "World": multiple simulated ranks in one process, each
// with its own worker thread, communicating via active messages.
//
// MADNESS programs are structured as tasks submitted to the local rank plus
// active messages that run a handler on a remote rank (that is how the
// distributed tree's accumulate works). This class gives those semantics
// with real threads: a task or AM handler always executes on the target
// rank's thread, so per-rank data needs no locking — the same discipline a
// real MPI+AM MADNESS run enforces. fence() is the global quiescence
// barrier (cf. world.gop.fence()).
//
// World is a transport and nothing more: tasks, active messages with
// retry/backoff and dead-rank declaration, and the fence. Load balance is
// static (the process maps in dht/owner_map.hpp decide where work lives);
// work stealing is modelled by clustersim's run_cluster_apply_stealing,
// and live health telemetry is published by the simulated scenarios
// (churn, cluster, serve), not by World.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"

namespace mh::world {

class World {
 public:
  /// `metrics`: registry for the per-rank message/byte counters; nullptr
  /// means the process registry (obs::MetricsRegistry::global()).
  explicit World(std::size_t ranks, obs::MetricsRegistry* metrics = nullptr);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  std::size_t ranks() const noexcept { return pools_.size(); }

  /// Run `task` on `rank`'s thread. Callable from any thread (including
  /// other ranks' tasks — that is just an active message without payload
  /// accounting).
  void submit(std::size_t rank, std::function<void()> task);

  /// Active message: run `handler` on rank `to`, accounting `bytes` of
  /// payload from rank `from`. Local sends (from == to) are free.
  ///
  /// Remote sends can fail (site `send` of FaultInjector::global(), the
  /// process injector configured from MH_FAULTS).
  /// A failed send is retried up to three times, backing off by
  /// fault::backoff_ms (1 ms doubling to a 20 ms cap, jitter from a
  /// fixed-seed stream); when every attempt fails the destination rank is
  /// declared permanently dead, the handler is dropped, and a typed
  /// fault::FaultError (kRankDead) is recorded for the next fence(). Sends
  /// to an already-dead rank fail fast.
  void send(std::size_t from, std::size_t to, double bytes,
            std::function<void()> handler);

  /// Ranks declared permanently dead by exhausted send retries, ascending.
  std::vector<std::size_t> dead_ranks() const;
  bool rank_alive(std::size_t rank) const;

  /// Block until every task and active message (including ones spawned
  /// transitively) has executed. Rethrows the first task error.
  void fence();

  struct Stats {
    std::size_t tasks = 0;      ///< tasks + handlers executed
    std::size_t messages = 0;   ///< remote sends
    double bytes = 0.0;         ///< payload bytes of remote sends
    std::size_t send_retries = 0;   ///< backoff-delayed re-attempts
    std::size_t send_failures = 0;  ///< sends dropped permanently
  };
  Stats stats() const;

 private:
  void enqueue(std::size_t rank, std::function<void()> fn,
               const char* span_name, obs::Category cat);
  void complete_one();

  obs::MetricsRegistry& metrics_;
  obs::Counter& m_tasks_;
  obs::Counter& m_send_retries_;
  obs::Counter& m_send_failures_;
  obs::Gauge& m_dead_ranks_;
  /// Per-destination-rank active-message counters (label rank=<to>).
  std::vector<obs::Counter*> m_rank_messages_;
  std::vector<obs::Counter*> m_rank_bytes_;
  std::vector<std::unique_ptr<rt::ThreadPool>> pools_;
  mutable std::mutex mu_;
  std::condition_variable quiescent_;
  std::size_t outstanding_ = 0;
  Stats stats_;
  std::exception_ptr first_error_;
  // Send resilience: the process injector; rng + dead set under mu_.
  fault::FaultInjector& faults_;
  Rng send_rng_;
  std::vector<bool> rank_dead_;
};

}  // namespace mh::world
