// Hybrid CPU-GPU work division (paper §II-A).
//
// Given a batch whose CPU-only execution takes m and whose GPU-only
// execution takes n, sending a fraction k of the work to the CPU finishes in
// max(m k, n (1-k)); the optimum k* = n/(m+n) balances both sides and yields
// the minimal time m n / (m+n). The dispatcher also supports an online
// estimate of m and n from observed per-item times.
#pragma once

#include <cstddef>

#include "common/sim_time.hpp"

namespace mh::rt {

/// Optimal fraction of a batch to run on the CPU: k* = n / (m + n).
/// m = CPU-only batch time, n = GPU-only batch time; both > 0.
double optimal_cpu_fraction(double cpu_only_time, double gpu_only_time);

/// Runtime of the batch when a fraction k goes to the CPU (perfect overlap):
/// max(m k, n (1 - k)).
double overlap_time(double cpu_only_time, double gpu_only_time, double k);

/// Minimal runtime under optimal overlap: m n / (m + n).
double optimal_overlap_time(double cpu_only_time, double gpu_only_time);

/// Split `batch_size` items: returns the CPU item count round(k * size),
/// clamped so neither side receives a negative count.
std::size_t cpu_share(std::size_t batch_size, double k);

/// Exponentially-weighted running estimate of per-item cost, used by the
/// BatchingEngine's auto split mode. Each sample weighs kAlpha against the
/// running estimate.
class RateEstimator {
 public:
  static constexpr double kAlpha = 0.3;

  /// Record that `items` items took `seconds` in total.
  void record(std::size_t items, double seconds);
  bool ready() const noexcept { return samples_ > 0; }
  /// Estimated seconds per item (0 until the first record()).
  double per_item() const noexcept { return per_item_; }
  std::size_t samples() const noexcept { return samples_; }

 private:
  double per_item_ = 0.0;
  std::size_t samples_ = 0;
};

}  // namespace mh::rt
