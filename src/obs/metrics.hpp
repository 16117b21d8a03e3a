// Process-wide metrics registry — the steady-state counterpart of the span
// tracing in trace.hpp.
//
// Spans answer "where did this interval go"; the paper's headline claims
// (the k* = n/(m+n) hybrid split, batch-aggregation efficiency, §II-A /
// Fig. 3) are *rates and levels*: pending batch
// depth, flushes per reason, live split fraction, stream occupancy, cache
// hit rate. Those live here as three instrument kinds:
//
//   Counter   — monotonically increasing (batches dispatched, bytes moved);
//   Gauge     — a level sampled in place (queue depth, split fraction);
//   Histogram — log-bucketed distribution (batch sizes, task durations),
//               on the power-of-two bucket geometry of common/stats.hpp.
//
// This is the one sink for scalar metrics: TraceSession records spans only.
//
// Instruments are registered once (mutex) and updated lock-free (relaxed
// atomics) — an update is one atomic RMW, cheap enough to leave always on.
// Handles returned by the registry are stable for the registry's lifetime;
// hot paths cache them. Runtime objects copy their levels into gauges when
// asked (BatchingEngine::sample_metrics, ThreadPool::sample_metrics);
// exporters (export.hpp) serialize a snapshot as Prometheus text exposition
// or JSON.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.hpp"

namespace mh::obs {

// The log-bucketed histogram geometry (bucket index = frexp exponent + 31,
// range 2^-31 .. 2^32) lives in common/stats.hpp so benches and the serving
// layer can summarize open-loop latency streams without this registry; the
// names are re-exported here because obs consumers spell them
// obs::HistogramSnapshot.
using mh::kHistogramBuckets;
using mh::log_bucket_index;
using mh::log_bucket_upper;
using mh::HistogramSnapshot;

/// Relaxed add for atomic<double> (fetch_add on double is C++20-optional).
inline void atomic_add(std::atomic<double>& a, double delta) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + delta,
                                  std::memory_order_relaxed)) {
  }
}

/// Monotonically increasing value. inc() is one relaxed RMW.
class Counter {
 public:
  void inc(double delta = 1.0) noexcept { atomic_add(v_, delta); }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<double> v_{0.0};
};

/// A level that can move both ways; set() overwrites, add() adjusts.
class Gauge {
 public:
  void set(double value) noexcept {
    v_.store(value, std::memory_order_relaxed);
  }
  void add(double delta) noexcept { atomic_add(v_, delta); }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<double> v_{0.0};
};

/// Log-bucketed distribution; observe() is a handful of relaxed RMWs.
class Histogram {
 public:
  void observe(double value) noexcept;
  HistogramSnapshot snapshot() const noexcept;

 private:
  friend class MetricsRegistry;
  Histogram() = default;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // ±inf sentinels keep the min/max CAS loops branch-free on first use;
  // snapshot() maps them back to 0 while count is still 0.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Prometheus-style labels: ordered key/value pairs. Two instruments with
/// the same name but different labels are distinct time series.
using Labels = std::vector<std::pair<std::string, std::string>>;

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register (or look up) an instrument. Takes a mutex — call once and
  /// cache the reference; the handle stays valid for the registry's
  /// lifetime. Re-registering the same (name, labels) returns the same
  /// instrument; registering the same name with a different kind throws.
  Counter& counter(std::string_view name, std::string_view help = {},
                   Labels labels = {});
  Gauge& gauge(std::string_view name, std::string_view help = {},
               Labels labels = {});
  Histogram& histogram(std::string_view name, std::string_view help = {},
                       Labels labels = {});

  /// One serialized time series, as the exporters consume it.
  struct Sample {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    Labels labels;
    double value = 0.0;         ///< counters and gauges
    HistogramSnapshot hist;     ///< histograms
  };

  /// Consistent-enough snapshot of every instrument, in registration order
  /// (each value is one atomic load; the set of instruments is locked).
  std::vector<Sample> snapshot() const;

  std::size_t size() const;

  /// The process-wide registry the runtime layers default to.
  static MetricsRegistry& global() noexcept;

 private:
  struct Entry {
    std::string name;
    std::string help;
    MetricKind kind;
    Labels labels;
    // Exactly one is non-null, matching kind.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& find_or_create(std::string_view name, std::string_view help,
                        Labels&& labels, MetricKind kind);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace mh::obs
