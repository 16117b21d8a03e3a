#include "runtime/dispatch.hpp"

#include <algorithm>
#include <cmath>

#include "common/diagnostics.hpp"

namespace mh::rt {

double optimal_cpu_fraction(double cpu_only_time, double gpu_only_time) {
  MH_CHECK(cpu_only_time > 0.0 && gpu_only_time > 0.0,
           "batch times must be positive");
  return gpu_only_time / (cpu_only_time + gpu_only_time);
}

double overlap_time(double cpu_only_time, double gpu_only_time, double k) {
  MH_CHECK(k >= 0.0 && k <= 1.0, "fraction out of range");
  return std::max(cpu_only_time * k, gpu_only_time * (1.0 - k));
}

double optimal_overlap_time(double cpu_only_time, double gpu_only_time) {
  MH_CHECK(cpu_only_time > 0.0 && gpu_only_time > 0.0,
           "batch times must be positive");
  return cpu_only_time * gpu_only_time / (cpu_only_time + gpu_only_time);
}

std::size_t cpu_share(std::size_t batch_size, double k) {
  MH_CHECK(k >= 0.0 && k <= 1.0, "fraction out of range");
  const auto n = static_cast<std::size_t>(
      std::llround(k * static_cast<double>(batch_size)));
  return std::min(n, batch_size);
}

void RateEstimator::record(std::size_t items, double seconds) {
  MH_CHECK(items > 0, "empty sample");
  MH_CHECK(seconds >= 0.0, "negative duration");
  const double sample = seconds / static_cast<double>(items);
  per_item_ = samples_ == 0 ? sample
                            : kAlpha * sample + (1.0 - kAlpha) * per_item_;
  ++samples_;
}

}  // namespace mh::rt
