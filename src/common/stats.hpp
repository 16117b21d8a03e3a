// Lightweight descriptive statistics used by benches and run reports.
//
// Two sample models live here:
//   - exact vectors of observations (RunningStat / percentile / summarize),
//     the closed-loop bench path where every repeat is kept;
//   - the log-bucketed HistogramSnapshot, the open-loop serving path where
//     millions of request latencies are folded into 64 power-of-two buckets
//     and quantiles (incl. p999) are interpolated from the bucket geometry.
// The histogram geometry was born in obs/metrics.hpp; it lives here so the
// bench harness and the serving layer can summarize open-loop latency
// streams without depending on the metrics registry (obs re-exports the
// names for its exporters and the telemetry rollup).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace mh {

/// Single-pass mean/variance/min/max accumulator (Welford's algorithm).
class RunningStat {
 public:
  void add(double x) noexcept;
  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  /// NaN until the first sample: an empty accumulator has no extrema, and a
  /// fake 0.0 silently poisons min/max folds (it looked like a real sample).
  double min() const noexcept {
    return n_ ? min_ : std::numeric_limits<double>::quiet_NaN();
  }
  double max() const noexcept {
    return n_ ? max_ : std::numeric_limits<double>::quiet_NaN();
  }
  double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exact percentile (nearest-rank) of a sample; sorts a copy.
double percentile(std::vector<double> xs, double p);

// --- log-bucketed histogram geometry ---------------------------------------
// Bucket i covers values with binary exponent i-31: bucket index is
// frexp(v)'s exponent clamped into [0, 63], so ~1.0 lands mid-array and the
// range spans 2^-31 .. 2^32. Shared by obs::Histogram and the open-loop
// latency summaries below.
inline constexpr std::size_t kHistogramBuckets = 64;

std::size_t log_bucket_index(double value) noexcept;
/// Upper bound of bucket i (inclusive): 2^(i-31).
double log_bucket_upper(std::size_t index) noexcept;

struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< meaningless while count == 0
  double max = 0.0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  /// Fold one observation in (the single-threaded accumulation path; the
  /// lock-free concurrent path is obs::Histogram::observe).
  void observe(double value) noexcept;

  /// Quantile estimate by linear interpolation inside the log bucket the
  /// rank lands in, clamped to [min, max] (the bucket bounds are powers of
  /// two, so the clamp tightens the estimate at the extremes). q outside
  /// [0, 1] is clamped; returns 0 while count == 0.
  double quantile(double q) const noexcept;
  /// The serving-SLO tail estimate the exporters publish.
  double p999() const noexcept { return quantile(0.999); }
};

/// Bucket-wise lossless merge: the result is indistinguishable from one
/// histogram that observed both sample streams (count, sum, min, max, and
/// every bucket — the shared log-bucket geometry is what makes the merge
/// exact). serve uses it to fold per-tenant latency histograms into the
/// all-tenant one.
HistogramSnapshot merge(const HistogramSnapshot& a,
                        const HistogramSnapshot& b) noexcept;

/// The descriptive summary benches and the metrics exporters report: one
/// struct so p50/p95/p99/p999/CoV are derived in exactly one place.
struct SampleSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = std::numeric_limits<double>::quiet_NaN();
  double max = std::numeric_limits<double>::quiet_NaN();
  double p50 = std::numeric_limits<double>::quiet_NaN();
  double p95 = std::numeric_limits<double>::quiet_NaN();
  double p99 = std::numeric_limits<double>::quiet_NaN();
  double p999 = std::numeric_limits<double>::quiet_NaN();
  /// Coefficient of variation (stddev/mean); 0 when the mean is 0.
  double cov = 0.0;
};

/// Summarize a sample; an empty sample yields the NaN-extrema default.
SampleSummary summarize(const std::vector<double>& xs);

/// Summarize an open-loop latency stream folded into a log-bucketed
/// histogram: quantiles (incl. the p999 tail) come from bucket
/// interpolation rather than exact ranks, so a million-request sweep costs
/// 64 words instead of a million doubles. stddev/cov are reported as 0 —
/// the bucket geometry preserves ranks, not second moments.
SampleSummary summarize(const HistogramSnapshot& h);

}  // namespace mh
