// Asynchronous batching of compute tasks — the paper's central runtime
// contribution (§II-A, Figure 3, Algorithms 3-6).
//
// A MADNESS algorithm developer splits a compute-intensive task into
//   preprocess  -> runs immediately on the submitting CPU thread (caller),
//   compute     -> enqueued here, aggregated per task *kind*, and executed
//                  in batches split between CPU workers and the GPU,
//   postprocess -> runs on a CPU worker after compute.
//
// Batches are dispatched when a timer expires or a batch reaches its size
// cap, paying CPU-GPU latency once per batch instead of once per task. The
// split between CPU and GPU follows the optimal-overlap fraction
// k* = n/(m+n) (see dispatch.hpp), either fixed by the caller or estimated
// online from observed per-item rates.
//
// The "kind" of a task combines the identity of its compute function with a
// user-defined hash of the input shape (paper §II-A footnote 2), so that a
// GPU batch is homogeneous enough to run as one aggregated kernel.
//
// Locking discipline: mu_ protects the pending queues, stats, and rate
// estimators. The dispatcher *stages* ready batches under mu_ and submits
// them to the worker pools only after releasing it — worker lambdas
// re-acquire mu_ in complete_one()/rate recording, so submitting while
// locked would serialize every batch against its own workers.
//
// Flush-reason accounting: every per-kind batch dispatch is attributed to
// exactly one of {timer, size, explicit}, so
//   timer_flushes + size_flushes + explicit_flushes == batches
// holds at all times. A size trigger on one kind dispatches only that kind;
// the other kinds keep aggregating until their own trigger, timer, or an
// explicit flush (this is what preserves batch amortisation — ablation #1).
//
// Resilience: the GPU side of a batch can fail (injected via src/fault, a
// thrown compute_gpu, or a per-batch deadline). A failed GPU batch is
// retried with exponential backoff + deterministic jitter up to
// gpu_max_retries; a run of breaker_threshold consecutive failures opens a
// GPU-health circuit breaker that re-routes whole batches to the CPU side
// (the live split degrades from k* to 1.0). After breaker_cooldown the
// breaker goes half-open and sends a single probe item to the GPU: success
// closes it (the auto-tuned split is restored from the surviving rate
// estimators), failure re-opens it. When retries are exhausted — or the
// breaker is open — a hybrid kind falls back to per-item CPU execution, so
// every submitted item still completes; a GPU-only kind surfaces a typed
// fault::FaultError from wait() instead of hanging.
#pragma once

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/diagnostics.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/dispatch.hpp"
#include "runtime/thread_pool.hpp"

namespace mh::rt {

using KindId = std::size_t;

template <typename Input, typename Output>
class BatchingEngine {
 public:
  struct Config {
    std::size_t cpu_threads = 4;
    /// Fraction of each batch computed on the CPU; negative = auto-tune
    /// towards k* = n/(m+n) from observed rates.
    double cpu_fraction = -1.0;
    /// Batch window: pending computes are dispatched when this expires.
    std::chrono::milliseconds flush_interval{5};
    /// Dispatch immediately once a kind has this many pending items.
    std::size_t max_batch = 256;
    /// Items per CPU pool task when fanning a batch's CPU share out
    /// (<= 1: one task per item, the classic cadence). Larger chunks hand
    /// a worker whole runs of small compute calls and keep its thread-local
    /// GemmWorkspace hot across the run; per-item postprocess, error
    /// isolation and completion accounting are unchanged.
    std::size_t cpu_chunk = 1;
    /// Span sink; nullptr falls back to obs::TraceSession::current()
    /// at construction (still tracing-off if that is null too).
    obs::TraceSession* trace = nullptr;
    /// Metrics registry for counters/gauges; nullptr means the process
    /// registry (obs::MetricsRegistry::global()). Updates are relaxed
    /// atomics on the dispatch path only, so there is no off switch.
    obs::MetricsRegistry* metrics = nullptr;

    // --- resilience ---------------------------------------------------
    /// Fault injector consulted on the GPU data path and by the CPU pool's
    /// workers; nullptr means the process injector configured from
    /// MH_FAULTS (fault::FaultInjector::global(), unarmed by default).
    fault::FaultInjector* faults = nullptr;
    /// Deadline for one GPU batch attempt; exceeding it counts as a
    /// failure (ErrorCode::kBatchTimeout). Zero disables the deadline.
    std::chrono::milliseconds gpu_batch_timeout{0};
    /// Retries after the first failed GPU attempt, while the breaker stays
    /// closed.
    std::size_t gpu_max_retries = 2;
    /// First retry backoff; doubles per attempt up to retry_backoff_max.
    std::chrono::milliseconds retry_backoff{1};
    std::chrono::milliseconds retry_backoff_max{50};
    /// Backoff is scaled by (1 + retry_jitter * u), u drawn from a
    /// dedicated xoshiro stream seeded with retry_seed — deterministic
    /// decorrelation, reproducible under a fixed seed.
    double retry_jitter = 0.25;
    std::uint64_t retry_seed = 0x5eedULL;
    /// Consecutive GPU-batch failures that open the circuit breaker.
    std::size_t breaker_threshold = 3;
    /// Open -> half-open delay before the next single-item GPU probe.
    std::chrono::milliseconds breaker_cooldown{25};
  };

  /// GPU-health circuit breaker states (degrade / probe / restore).
  enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

  /// The three developer-supplied pieces of one task kind. compute_gpu may
  /// be empty (CPU-only kind) and vice versa; postprocess is required.
  struct KindSpec {
    std::function<Output(const Input&)> compute_cpu;
    std::function<std::vector<Output>(std::span<const Input>)> compute_gpu;
    std::function<void(Output&&)> postprocess;
    std::uint64_t input_hash = 0;  ///< user-defined input-shape hash
  };

  struct Stats {
    std::size_t submitted = 0;
    std::size_t completed = 0;
    std::size_t batches = 0;
    std::size_t cpu_items = 0;
    std::size_t gpu_items = 0;
    std::size_t timer_flushes = 0;
    std::size_t size_flushes = 0;
    std::size_t explicit_flushes = 0;
    std::size_t max_batch_seen = 0;
    // Resilience accounting.
    std::size_t gpu_failures = 0;        ///< failed GPU batch attempts
    std::size_t gpu_retries = 0;         ///< backoff-delayed re-attempts
    std::size_t gpu_fallback_items = 0;  ///< items re-routed GPU -> CPU
    std::size_t breaker_opens = 0;
    std::size_t breaker_closes = 0;
    /// Backoff delays applied so far, in order (ms; capped at 4096
    /// entries). Byte-for-byte reproducible under a fixed retry_seed.
    std::vector<double> retry_backoffs_ms;
  };

  explicit BatchingEngine(Config config)
      : config_(config),
        trace_(config.trace != nullptr ? config.trace
                                       : obs::TraceSession::current()),
        metrics_(config.metrics != nullptr ? *config.metrics
                                           : obs::MetricsRegistry::global()),
        m_batches_(metrics_.counter("mh_batching_batches_total",
                                    "batches dispatched")),
        m_flush_timer_(metrics_.counter("mh_batching_flushes_total",
                                        "batch dispatches by trigger",
                                        {{"reason", "timer"}})),
        m_flush_size_(metrics_.counter("mh_batching_flushes_total", {},
                                       {{"reason", "size"}})),
        m_flush_explicit_(metrics_.counter("mh_batching_flushes_total", {},
                                           {{"reason", "explicit"}})),
        m_cpu_items_(metrics_.counter("mh_batching_items_total",
                                      "compute items by execution side",
                                      {{"side", "cpu"}})),
        m_gpu_items_(metrics_.counter("mh_batching_items_total", {},
                                      {{"side", "gpu"}})),
        m_batch_items_(metrics_.histogram("mh_batching_batch_items",
                                          "items per dispatched batch")),
        m_gpu_failures_(metrics_.counter("mh_fault_gpu_batch_failures_total",
                                         "failed GPU batch attempts")),
        m_gpu_retries_(metrics_.counter("mh_fault_gpu_batch_retries_total",
                                        "GPU batch retries after backoff")),
        m_fallback_items_(
            metrics_.counter("mh_fault_cpu_fallback_items_total",
                             "items re-routed from the GPU to the CPU side")),
        m_breaker_to_open_(metrics_.counter(
            "mh_fault_breaker_transitions_total",
            "GPU-health circuit breaker transitions", {{"to", "open"}})),
        m_breaker_to_half_(metrics_.counter("mh_fault_breaker_transitions_total",
                                            {}, {{"to", "half_open"}})),
        m_breaker_to_closed_(
            metrics_.counter("mh_fault_breaker_transitions_total", {},
                             {{"to", "closed"}})),
        m_breaker_state_(metrics_.gauge(
            "mh_fault_breaker_state",
            "breaker state: 0 closed, 0.5 half-open, 1 open")),
        m_breaker_open_seconds_(metrics_.counter(
            "mh_fault_breaker_open_seconds_total",
            "cumulative wall time the breaker spent away from closed")),
        faults_(config.faults != nullptr ? config.faults
                                         : &fault::FaultInjector::global()),
        retry_rng_(config.retry_seed),
        cpu_pool_(std::max<std::size_t>(1, config.cpu_threads), "cpu-pool"),
        gpu_driver_(1, "gpu-driver") {
    MH_CHECK(config_.max_batch >= 1, "batch cap must be positive");
    // Worker-stall injection (site worker_slow) applies to the CPU workers;
    // the GPU driver's stalls are modeled by the batch deadline instead.
    cpu_pool_.set_fault_injector(faults_);
    dispatcher_ = std::thread([this] { dispatcher_loop(); });
  }

  ~BatchingEngine() {
    try {
      wait();
    } catch (...) {
      // Destructor must not throw; errors were already observable via wait().
    }
    {
      std::scoped_lock lock(mu_);
      stop_ = true;
    }
    dispatch_cv_.notify_all();
    dispatcher_.join();
  }

  BatchingEngine(const BatchingEngine&) = delete;
  BatchingEngine& operator=(const BatchingEngine&) = delete;

  /// Register a task kind; returns its id. Not thread-safe against submit.
  KindId register_kind(KindSpec spec) {
    MH_CHECK(spec.postprocess != nullptr, "postprocess is required");
    MH_CHECK(spec.compute_cpu != nullptr || spec.compute_gpu != nullptr,
             "kind needs at least one compute implementation");
    std::scoped_lock lock(mu_);
    kinds_.push_back(std::make_unique<Kind>(std::move(spec)));
    const KindId id = kinds_.size() - 1;
    // Per-kind sampler targets (one time series per kind id).
    Kind& kind = *kinds_.back();
    const obs::Labels labels{{"kind", std::to_string(id)}};
    kind.pending_gauge = &metrics_.gauge(
        "mh_batching_pending_depth", "compute items awaiting dispatch",
        labels);
    kind.split_gauge = &metrics_.gauge(
        "mh_batching_split_fraction",
        "CPU share of the next batch (the live hybrid split)", labels);
    kind.kstar_gauge = &metrics_.gauge(
        "mh_batching_split_kstar",
        "optimal split k* = n/(m+n) from the observed per-item rates",
        labels);
    return id;
  }

  /// Paper-style kind hash: identity of the compute function combined with
  /// the user input hash.
  std::uint64_t kind_hash(KindId id) const {
    std::scoped_lock lock(mu_);
    const Kind& kind = *kinds_.at(id);
    const std::uint64_t fn_id =
        kind.spec.compute_cpu
            ? static_cast<std::uint64_t>(
                  kind.spec.compute_cpu.target_type().hash_code())
            : static_cast<std::uint64_t>(
                  kind.spec.compute_gpu.target_type().hash_code());
    return hash_combine(fn_id, kind.spec.input_hash);
  }

  /// Enqueue one compute input (the tail of a preprocess task). Mints the
  /// item's causal trace context here — the "enqueue" span adopts the
  /// caller's ambient context (e.g. a World task) or starts a fresh task —
  /// and carries it through batch membership, compute, and postprocess.
  void submit(KindId id, Input input) {
    obs::ScopedSpan span(trace_, "enqueue", obs::Category::kPreprocess,
                         {{"kind", static_cast<double>(id)}});
    bool notify = false;
    {
      std::scoped_lock lock(mu_);
      MH_CHECK(!stop_, "engine is shutting down");
      Kind& kind = *kinds_.at(id);
      if (kind.pending.empty()) {
        kind.oldest_pending = std::chrono::steady_clock::now();
      }
      kind.pending.push_back(std::move(input));
      kind.pending_ctx.push_back(span.context());
      ++stats_.submitted;
      if (kind.pending.size() >= config_.max_batch) {
        kind.size_trigger = true;
        notify = true;
      }
    }
    if (notify) dispatch_cv_.notify_all();
  }

  /// Force-dispatch everything pending without waiting for the timer.
  void flush() {
    {
      std::scoped_lock lock(mu_);
      flush_requested_ = true;
    }
    dispatch_cv_.notify_all();
  }

  /// Flush, then block until every submitted item has been postprocessed.
  /// Rethrows the first compute/postprocess exception.
  void wait() {
    flush();
    {
      std::unique_lock lock(mu_);
      done_cv_.wait(lock, [this] {
        return stats_.completed == stats_.submitted && all_pending_empty();
      });
    }
    cpu_pool_.wait_idle();
    gpu_driver_.wait_idle();
    // Check for errors only after the pools have drained: a postprocess
    // task completing during wait_idle() may record one, and a snapshot
    // taken before the drain would silently drop it until a later wait().
    std::exception_ptr error;
    {
      std::scoped_lock lock(mu_);
      error = first_error_;
      first_error_ = nullptr;
    }
    if (error) std::rethrow_exception(error);
  }

  Stats stats() const {
    std::scoped_lock lock(mu_);
    return stats_;
  }

  BreakerState breaker_state() const {
    std::scoped_lock lock(mu_);
    return breaker_;
  }

  /// Publish the engine's levels into its metrics registry: per-kind
  /// pending depth, live split fraction and its k* target, plus the two
  /// pools' queue/utilization gauges. Wire this into an obs::Sampler probe:
  ///   sampler.add_probe([&engine] { engine.sample_metrics(); });
  void sample_metrics() {
    {
      std::scoped_lock lock(mu_);
      for (auto& kind_ptr : kinds_) {
        Kind& kind = *kind_ptr;
        kind.pending_gauge->set(static_cast<double>(kind.pending.size()));
        kind.split_gauge->set(split_fraction_locked(kind));
        if (kind.cpu_rate.ready() && kind.gpu_rate.ready() &&
            kind.cpu_rate.per_item() > 0.0 && kind.gpu_rate.per_item() > 0.0) {
          kind.kstar_gauge->set(optimal_cpu_fraction(
              kind.cpu_rate.per_item(), kind.gpu_rate.per_item()));
        }
      }
    }
    cpu_pool_.sample_metrics(metrics_);
    gpu_driver_.sample_metrics(metrics_);
  }

 private:
  struct Kind {
    explicit Kind(KindSpec s) : spec(std::move(s)) {}
    KindSpec spec;
    std::vector<Input> pending;
    /// Causal context of each pending item, parallel to `pending`.
    std::vector<obs::TraceContext> pending_ctx;
    /// When the oldest currently-pending item arrived (valid while
    /// pending is non-empty); bounds how long a partial batch can sit
    /// while other kinds' size triggers keep waking the dispatcher.
    std::chrono::steady_clock::time_point oldest_pending{};
    bool size_trigger = false;
    RateEstimator cpu_rate;
    RateEstimator gpu_rate;
    // Sampler targets, registered in register_kind (stable for the
    // registry's lifetime).
    obs::Gauge* pending_gauge = nullptr;
    obs::Gauge* split_gauge = nullptr;
    obs::Gauge* kstar_gauge = nullptr;
  };

  enum FlushReason : int {
    kTimerFlush = 0,
    kSizeFlush = 1,
    kExplicitFlush = 2,
  };

  /// A batch staged under mu_ for submission after mu_ is released.
  struct StagedBatch {
    Kind* kind = nullptr;
    KindId kind_id = 0;
    std::vector<Input> items;
    std::vector<obs::TraceContext> ctxs;  ///< parallel to items
    std::size_t ncpu = 0;
    double split = 0.0;
    FlushReason reason = kTimerFlush;
  };

  /// The GPU share of a staged batch plus the causal plumbing the retry /
  /// fallback machinery needs: each item's own context (postprocess and CPU
  /// fallback keep the item's task id) and the batch span's context (the
  /// gpu-batch span chains to it).
  struct GpuWork {
    std::vector<Input> items;
    std::vector<obs::TraceContext> ctxs;  ///< parallel to items
    obs::TraceContext batch_ctx;
  };

  bool all_pending_empty() const {
    for (const auto& kind : kinds_) {
      if (!kind->pending.empty()) return false;
    }
    return true;
  }

  double split_fraction_locked(Kind& kind) const {
    if (!kind.spec.compute_gpu) return 1.0;
    if (!kind.spec.compute_cpu) return 0.0;
    if (config_.cpu_fraction >= 0.0) return config_.cpu_fraction;
    if (kind.cpu_rate.ready() && kind.gpu_rate.ready() &&
        kind.cpu_rate.per_item() > 0.0 && kind.gpu_rate.per_item() > 0.0) {
      // k* = n/(m+n) with m, n proportional to per-item rates.
      return optimal_cpu_fraction(kind.cpu_rate.per_item(),
                                  kind.gpu_rate.per_item());
    }
    return 0.5;  // cold start: split evenly until rates are known
  }

  /// Earliest window expiry across kinds, bounded by one full flush
  /// interval.
  std::chrono::steady_clock::time_point next_wake_locked() const {
    const auto now = std::chrono::steady_clock::now();
    auto wake = now + config_.flush_interval;
    for (const auto& kind : kinds_) {
      if (kind->pending.empty()) continue;
      wake = std::min(wake, kind->oldest_pending + config_.flush_interval);
    }
    return std::max(wake, now);
  }

  void dispatcher_loop() {
    obs::set_thread_label("batch-dispatcher");
    std::vector<StagedBatch> staged;
    std::unique_lock lock(mu_);
    for (;;) {
      // Sleep until the earliest window expiry across kinds; size triggers
      // and explicit flushes cut the sleep short.
      dispatch_cv_.wait_until(lock, next_wake_locked(), [this] {
        if (stop_ || flush_requested_) return true;
        for (const auto& kind : kinds_) {
          if (kind->size_trigger) return true;
        }
        return false;
      });
      if (stop_) return;
      const bool explicit_flush = flush_requested_;
      flush_requested_ = false;
      const auto now = std::chrono::steady_clock::now();
      for (std::size_t id = 0; id < kinds_.size(); ++id) {
        Kind& kind = *kinds_[id];
        const bool size_trigger = kind.size_trigger;
        kind.size_trigger = false;
        if (kind.pending.empty()) continue;
        // Attribute this kind's dispatch to exactly one reason — or leave
        // the kind aggregating: a size trigger on kind A must not break up
        // kind B's still-small batch (that is ablation #1's amortisation).
        FlushReason reason;
        if (explicit_flush) {
          reason = kExplicitFlush;
          ++stats_.explicit_flushes;
          m_flush_explicit_.inc();
        } else if (size_trigger) {
          reason = kSizeFlush;
          ++stats_.size_flushes;
          m_flush_size_.inc();
        } else if (now - kind.oldest_pending >= config_.flush_interval) {
          // The batch outwaited its aggregation window.
          reason = kTimerFlush;
          ++stats_.timer_flushes;
          m_flush_timer_.inc();
        } else {
          continue;  // woken for another kind's trigger: keep aggregating
        }
        staged.push_back(stage_batch_locked(kind, id, reason));
      }
      if (staged.empty()) continue;
      // Submit with mu_ released: worker lambdas take mu_ immediately.
      lock.unlock();
      for (StagedBatch& batch : staged) submit_batch(std::move(batch));
      staged.clear();
      lock.lock();
    }
  }

  StagedBatch stage_batch_locked(Kind& kind, KindId id, FlushReason reason) {
    StagedBatch staged;
    staged.kind = &kind;
    staged.kind_id = id;
    staged.items = std::move(kind.pending);
    kind.pending.clear();
    staged.ctxs = std::move(kind.pending_ctx);
    kind.pending_ctx.clear();
    staged.reason = reason;
    ++stats_.batches;
    stats_.max_batch_seen = std::max(stats_.max_batch_seen, staged.items.size());
    m_batches_.inc();
    m_batch_items_.observe(static_cast<double>(staged.items.size()));

    staged.split = split_fraction_locked(kind);
    staged.ncpu = cpu_share(staged.items.size(), staged.split);
    // Auto-tune cold start: rounding (e.g. cpu_share(1, 0.5) == 1) can starve
    // the GPU forever — gpu_rate never gets a sample, so the split never
    // leaves 0.5. Reserve at least one warm-up item for the GPU until its
    // rate estimator has seen a batch.
    if (config_.cpu_fraction < 0.0 && kind.spec.compute_gpu &&
        !kind.gpu_rate.ready() && staged.ncpu == staged.items.size()) {
      staged.ncpu = staged.items.size() - 1;
    }
    // Circuit breaker: while the GPU is unhealthy, degrade the split to 1.0
    // (all CPU) for hybrid kinds; in half-open, send exactly one probe item
    // to the GPU — at most one probe in flight at a time.
    if (kind.spec.compute_gpu && kind.spec.compute_cpu &&
        breaker_ != BreakerState::kClosed) {
      update_breaker_locked();
      if (breaker_ == BreakerState::kOpen ||
          (breaker_ == BreakerState::kHalfOpen && probe_inflight_)) {
        staged.ncpu = staged.items.size();
        staged.split = 1.0;
      } else if (breaker_ == BreakerState::kHalfOpen) {
        staged.ncpu = staged.items.size() - 1;
        staged.split = static_cast<double>(staged.ncpu) /
                       static_cast<double>(staged.items.size());
        probe_inflight_ = true;
      }
    }
    stats_.cpu_items += staged.ncpu;
    stats_.gpu_items += staged.items.size() - staged.ncpu;
    m_cpu_items_.inc(static_cast<double>(staged.ncpu));
    m_gpu_items_.inc(static_cast<double>(staged.items.size() - staged.ncpu));
    kind.split_gauge->set(staged.split);
    return staged;
  }

  void submit_batch(StagedBatch staged) {
    obs::ScopedSpan span(
        trace_, "batch", obs::Category::kBatchFlush,
        {{"kind", static_cast<double>(staged.kind_id)},
         {"reason", static_cast<double>(staged.reason)},
         {"cpu_frac", staged.split},
         {"items", static_cast<double>(staged.items.size())},
         {"ncpu", static_cast<double>(staged.ncpu)}});
    if (trace_ != nullptr) {
      // Many-to-one join: every member item's enqueue span feeds this batch
      // span (a single parent link cannot express the fan-in).
      for (const obs::TraceContext& ctx : staged.ctxs) {
        trace_->add_edge(ctx.span, span.id());
      }
    }
    Kind* kptr = staged.kind;
    const std::size_t ncpu = staged.ncpu;
    const double kind_id = static_cast<double>(staged.kind_id);
    const std::uint64_t batch_id = span.id();

    // GPU side: one aggregated call for the tail of the batch, wrapped in
    // the retry/breaker machinery (run_gpu_batch). Item contexts ride along
    // so postprocess — and CPU fallback after a failed batch — keep each
    // item's task id.
    if (staged.items.size() > ncpu) {
      auto work = std::make_shared<GpuWork>();
      work->items.assign(
          std::make_move_iterator(staged.items.begin() +
                                  static_cast<std::ptrdiff_t>(ncpu)),
          std::make_move_iterator(staged.items.end()));
      work->ctxs.assign(staged.ctxs.begin() + static_cast<std::ptrdiff_t>(
                                                  std::min(ncpu,
                                                           staged.ctxs.size())),
                        staged.ctxs.end());
      work->batch_ctx = span.context();
      gpu_driver_.submit([this, kptr, kind_id, work] {
        obs::ScopedContext provenance(work->batch_ctx);
        run_gpu_batch(kptr, kind_id, work);
      });
    }

    // CPU side: the batch's CPU share fans out over the CPU pool
    // in chunks of Config::cpu_chunk items (1 = one task per item; they are
    // independent MADNESS tasks either way). Each item keeps its own task
    // id; its compute span chains to the batch dispatch.
    const std::size_t chunk = std::max<std::size_t>(1, config_.cpu_chunk);
    for (std::size_t i0 = 0; i0 < ncpu; i0 += chunk) {
      submit_cpu_chunk(kptr, kind_id, staged.items, staged.ctxs, i0,
                       std::min(ncpu, i0 + chunk), batch_id);
    }
  }

  /// Compute+postprocess items [i0, i1) of `src` (moved out) on the CPU
  /// pool as ONE pool task: a run of a batch's CPU share, or one item of a
  /// failed GPU batch falling back to the CPU. One worker runs the whole
  /// chunk, so its thread-local scratch (e.g. linalg's GemmWorkspace)
  /// stays hot across it. Each item's causal context (task id + producer
  /// span; `batch_id`, when nonzero, replaces the producer) is re-installed
  /// on the worker so its compute span continues the item's chain. Spans,
  /// postprocess, error isolation and completion accounting are per item;
  /// the CPU rate sample is aggregated over the chunk (rate.record(n, dt)).
  void submit_cpu_chunk(Kind* kptr, double kind_id, std::vector<Input>& src,
                        const std::vector<obs::TraceContext>& src_ctxs,
                        std::size_t i0, std::size_t i1,
                        std::uint64_t batch_id) {
    auto items = std::make_shared<std::vector<Input>>();
    auto ctxs = std::make_shared<std::vector<obs::TraceContext>>();
    items->reserve(i1 - i0);
    ctxs->reserve(i1 - i0);
    for (std::size_t i = i0; i < i1; ++i) {
      obs::TraceContext ctx =
          i < src_ctxs.size() ? src_ctxs[i] : obs::TraceContext{};
      if (batch_id != 0) ctx.span = batch_id;
      items->push_back(std::move(src[i]));
      ctxs->push_back(ctx);
    }
    cpu_pool_.submit([this, kptr, kind_id, items, ctxs] {
      double chunk_secs = 0.0;
      std::size_t computed = 0;
      for (std::size_t i = 0; i < items->size(); ++i) {
        obs::ScopedContext provenance((*ctxs)[i]);
        try {
          obs::TraceContext chain = (*ctxs)[i];
          Output out = [&] {
            obs::ScopedSpan cpu_span(trace_, "cpu-compute",
                                     obs::Category::kCpuCompute,
                                     {{"kind", kind_id}});
            if (cpu_span.id() != 0) chain = cpu_span.context();
            const auto t0 = std::chrono::steady_clock::now();
            Output result = kptr->spec.compute_cpu((*items)[i]);
            const std::chrono::duration<double> dt =
                std::chrono::steady_clock::now() - t0;
            chunk_secs += dt.count();
            ++computed;
            return result;
          }();
          // Postprocess chains to the compute span (the compute span has
          // already closed, so the ambient context must be re-installed).
          obs::ScopedContext after(chain);
          obs::ScopedSpan post_span(trace_, "postprocess",
                                    obs::Category::kPostprocess,
                                    {{"kind", kind_id}});
          kptr->spec.postprocess(std::move(out));
        } catch (...) {
          record_error(std::current_exception());
        }
        complete_one();
      }
      if (computed > 0) {
        std::scoped_lock lock(mu_);
        kptr->cpu_rate.record(computed, chunk_secs);
      }
    });
  }

  // --- GPU-side resilience --------------------------------------------

  /// One GPU attempt: injected transfer/kernel faults, the aggregated
  /// compute_gpu call, the per-batch deadline. Throws on any failure; on
  /// success records the rate sample and submits postprocess tasks.
  void gpu_attempt(Kind* kptr, double kind_id,
                   const std::shared_ptr<GpuWork>& work) {
    std::vector<Output> outs;
    std::uint64_t gpu_span_id = 0;
    {
      obs::ScopedSpan gpu_span(
          trace_, "gpu-batch", obs::Category::kGpuKernel,
          {{"kind", kind_id},
           {"items", static_cast<double>(work->items.size())}});
      gpu_span_id = gpu_span.id();
      if (faults_->armed()) {
        if (faults_->should_fail(fault::FaultSite::kTransferH2D)) {
          throw fault::FaultError(fault::ErrorCode::kTransferTimeout,
                                  "injected H2D transfer timeout");
        }
        if (faults_->should_fail(fault::FaultSite::kGpuKernel)) {
          throw fault::FaultError(fault::ErrorCode::kGpuKernelFailed,
                                  "injected GPU kernel failure");
        }
      }
      const auto t0 = std::chrono::steady_clock::now();
      outs = kptr->spec.compute_gpu(
          std::span<const Input>{work->items.data(), work->items.size()});
      const auto dt = std::chrono::steady_clock::now() - t0;
      if (faults_->armed() &&
          faults_->should_fail(fault::FaultSite::kTransferD2H)) {
        throw fault::FaultError(fault::ErrorCode::kTransferTimeout,
                                "injected D2H transfer timeout");
      }
      if (config_.gpu_batch_timeout.count() > 0 &&
          dt > config_.gpu_batch_timeout) {
        throw fault::FaultError(fault::ErrorCode::kBatchTimeout,
                                "GPU batch exceeded its deadline");
      }
      MH_CHECK(outs.size() == work->items.size(),
               "GPU batch must return one output per input");
      const std::chrono::duration<double> secs = dt;
      std::scoped_lock lock(mu_);
      kptr->gpu_rate.record(work->items.size(), secs.count());
    }
    // Each item's enqueue span joined the batch already; the item's
    // postprocess keeps its own task id but chains to the gpu-batch span
    // that actually produced its output.
    for (std::size_t i = 0; i < outs.size(); ++i) {
      auto boxed = std::make_shared<Output>(std::move(outs[i]));
      obs::TraceContext ctx = i < work->ctxs.size() ? work->ctxs[i]
                                                    : obs::TraceContext{};
      if (gpu_span_id != 0) ctx.span = gpu_span_id;
      cpu_pool_.submit([this, kptr, kind_id, boxed, ctx] {
        obs::ScopedContext provenance(ctx);
        try {
          obs::ScopedSpan post_span(trace_, "postprocess",
                                    obs::Category::kPostprocess,
                                    {{"kind", kind_id}});
          kptr->spec.postprocess(std::move(*boxed));
        } catch (...) {
          record_error(std::current_exception());
        }
        complete_one();
      });
    }
  }

  /// Retry loop around gpu_attempt, run on the gpu-driver thread. Bounded
  /// retries with backoff while the breaker stays closed; on exhaustion
  /// (or an open breaker) the batch falls back to the CPU side, or — for a
  /// GPU-only kind — surfaces a typed error from wait().
  void run_gpu_batch(Kind* kptr, double kind_id,
                     const std::shared_ptr<GpuWork>& work) {
    for (std::size_t attempt = 0;; ++attempt) {
      try {
        gpu_attempt(kptr, kind_id, work);
        on_gpu_success();
        return;
      } catch (...) {
        const std::exception_ptr cause = std::current_exception();
        const bool breaker_open = on_gpu_failure();
        if (!breaker_open && attempt < config_.gpu_max_retries) {
          backoff_sleep(attempt);
          continue;
        }
        finish_failed_gpu_batch(kptr, kind_id, work, cause, attempt + 1);
        return;
      }
    }
  }

  /// Exponential backoff with deterministic jitter before a retry.
  void backoff_sleep(std::size_t attempt) {
    double delay_ms = 0.0;
    {
      std::scoped_lock lock(mu_);
      const double base = std::min(
          static_cast<double>(config_.retry_backoff.count()) *
              std::pow(2.0, static_cast<double>(attempt)),
          static_cast<double>(config_.retry_backoff_max.count()));
      delay_ms = base * (1.0 + config_.retry_jitter * retry_rng_.next_double());
      ++stats_.gpu_retries;
      if (stats_.retry_backoffs_ms.size() < 4096) {
        stats_.retry_backoffs_ms.push_back(delay_ms);
      }
    }
    m_gpu_retries_.inc();
    obs::ScopedSpan span(trace_, "gpu-retry-backoff", obs::Category::kOther,
                         {{"delay_ms", delay_ms}});
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(delay_ms));
  }

  /// Record a failed GPU attempt; advances the breaker. Returns whether
  /// the breaker is now open (which short-circuits further retries).
  bool on_gpu_failure() {
    m_gpu_failures_.inc();
    std::scoped_lock lock(mu_);
    ++stats_.gpu_failures;
    ++consecutive_gpu_failures_;
    const bool probe_failed = breaker_ == BreakerState::kHalfOpen;
    probe_inflight_ = false;
    if (probe_failed ||
        (breaker_ == BreakerState::kClosed &&
         consecutive_gpu_failures_ >= config_.breaker_threshold)) {
      open_breaker_locked();
    }
    return breaker_ == BreakerState::kOpen;
  }

  /// Record a successful GPU batch; closes the breaker if it was probing.
  void on_gpu_success() {
    std::scoped_lock lock(mu_);
    consecutive_gpu_failures_ = 0;
    probe_inflight_ = false;
    if (breaker_ == BreakerState::kClosed) return;
    const std::chrono::duration<double> open_for =
        std::chrono::steady_clock::now() - breaker_opened_at_;
    m_breaker_open_seconds_.inc(open_for.count());
    breaker_ = BreakerState::kClosed;
    ++stats_.breaker_closes;
    m_breaker_to_closed_.inc();
    m_breaker_state_.set(0.0);
  }

  void open_breaker_locked() {
    if (breaker_ != BreakerState::kOpen) {
      // Entering open from closed starts the degradation interval; a failed
      // half-open probe re-opens without restarting interval accounting
      // (breaker_opened_at_ keeps the original open timestamp only when
      // transitioning from closed).
      if (breaker_ == BreakerState::kClosed) {
        breaker_opened_at_ = std::chrono::steady_clock::now();
        ++stats_.breaker_opens;
      }
      breaker_ = BreakerState::kOpen;
      m_breaker_to_open_.inc();
      m_breaker_state_.set(1.0);
    }
    // Every failure while open restarts the cooldown clock.
    breaker_reprobe_at_ =
        std::chrono::steady_clock::now() + config_.breaker_cooldown;
  }

  /// Open -> half-open once the cooldown has elapsed (called while staging
  /// under mu_, so transitions happen at batch granularity).
  void update_breaker_locked() {
    if (breaker_ == BreakerState::kOpen &&
        std::chrono::steady_clock::now() >= breaker_reprobe_at_) {
      breaker_ = BreakerState::kHalfOpen;
      probe_inflight_ = false;
      m_breaker_to_half_.inc();
      m_breaker_state_.set(0.5);
    }
  }

  /// Terminal handling of a GPU batch that will not run on the GPU: CPU
  /// fallback for hybrid kinds, a typed recorded error otherwise. Either
  /// way every item is accounted for, so wait() never hangs.
  void finish_failed_gpu_batch(
      Kind* kptr, double kind_id, const std::shared_ptr<GpuWork>& work,
      const std::exception_ptr& cause, std::size_t attempts) {
    if (kptr->spec.compute_cpu) {
      {
        std::scoped_lock lock(mu_);
        stats_.gpu_fallback_items += work->items.size();
      }
      m_fallback_items_.inc(static_cast<double>(work->items.size()));
      // Fallback items keep their provenance: the compute span on the CPU
      // side continues each item's original task chain.
      for (std::size_t i = 0; i < work->items.size(); ++i) {
        submit_cpu_chunk(kptr, kind_id, work->items, work->ctxs, i, i + 1, 0);
      }
      return;
    }
    std::string why = "unknown error";
    try {
      std::rethrow_exception(cause);
    } catch (const std::exception& e) {
      why = e.what();
    } catch (...) {
    }
    record_error(std::make_exception_ptr(fault::FaultError(
        fault::ErrorCode::kGpuRetriesExhausted,
        "GPU batch failed after " + std::to_string(attempts) +
            " attempt(s) with no CPU fallback: " + why)));
    for (std::size_t i = 0; i < work->items.size(); ++i) complete_one();
  }

  void complete_one() {
    std::scoped_lock lock(mu_);
    ++stats_.completed;
    if (stats_.completed == stats_.submitted) done_cv_.notify_all();
  }

  void record_error(std::exception_ptr e) {
    std::scoped_lock lock(mu_);
    if (!first_error_) first_error_ = e;
  }

  Config config_;
  obs::TraceSession* trace_;
  obs::MetricsRegistry& metrics_;
  obs::Counter& m_batches_;
  obs::Counter& m_flush_timer_;
  obs::Counter& m_flush_size_;
  obs::Counter& m_flush_explicit_;
  obs::Counter& m_cpu_items_;
  obs::Counter& m_gpu_items_;
  obs::Histogram& m_batch_items_;
  obs::Counter& m_gpu_failures_;
  obs::Counter& m_gpu_retries_;
  obs::Counter& m_fallback_items_;
  obs::Counter& m_breaker_to_open_;
  obs::Counter& m_breaker_to_half_;
  obs::Counter& m_breaker_to_closed_;
  obs::Gauge& m_breaker_state_;
  obs::Counter& m_breaker_open_seconds_;
  fault::FaultInjector* faults_;
  mutable std::mutex mu_;
  std::condition_variable dispatch_cv_;
  std::condition_variable done_cv_;
  std::vector<std::unique_ptr<Kind>> kinds_;
  Stats stats_;
  std::exception_ptr first_error_;
  bool flush_requested_ = false;
  bool stop_ = false;
  // Resilience state (all under mu_ except the metric handles above).
  Rng retry_rng_;
  BreakerState breaker_ = BreakerState::kClosed;
  std::size_t consecutive_gpu_failures_ = 0;
  bool probe_inflight_ = false;
  std::chrono::steady_clock::time_point breaker_opened_at_{};
  std::chrono::steady_clock::time_point breaker_reprobe_at_{};

  ThreadPool cpu_pool_;
  ThreadPool gpu_driver_;  // serializes "GPU" batch calls like one device
  std::thread dispatcher_;
};

}  // namespace mh::rt
